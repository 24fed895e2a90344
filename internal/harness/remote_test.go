package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runOnShards runs cfg's campaign through RunRemoteContext with an
// in-process Executor, the way a coordinator runs it on its workers: each
// batch the engine hands out splits into explicit-ID specs over shards
// workers (PlanRoundShards), each spec runs through pass on c, whose
// Checkpoint is the shard's own journal, and the journals fold back in
// reverse order. A nil pass runs RunShard. runOnShards returns the
// campaign's partial and every batch the engine handed out, in order.
func runOnShards(t testing.TB, cfg CampaignConfig, shards int, pass func(i int, c CampaignConfig, spec ShardSpec) error) (*PartialResult, [][]int) {
	t.Helper()
	if pass == nil {
		pass = func(_ int, c CampaignConfig, spec ShardSpec) error {
			_, err := RunShard(c, spec)
			return err
		}
	}
	dir := t.TempDir()
	var batches [][]int
	exec := func(_ context.Context, ids []int, fold func(ShardSpec, []byte) error) error {
		batches = append(batches, append([]int(nil), ids...))
		specs := PlanRoundShards(cfg, ids, shards)
		journals := make([][]byte, len(specs))
		for i, spec := range specs {
			c := cfg
			c.Checkpoint, c.Resume, c.Progress = filepath.Join(dir, fmt.Sprintf("batch%d-shard%d", len(batches), i)), false, nil
			if err := pass(i, c, spec); err != nil {
				return err
			}
			data, err := os.ReadFile(c.Checkpoint)
			if err != nil {
				return err
			}
			journals[i] = data
		}
		for i := len(specs) - 1; i >= 0; i-- {
			if err := fold(specs[i], journals[i]); err != nil {
				return err
			}
		}
		return nil
	}
	part, err := RunRemoteContext(context.Background(), cfg, exec)
	if err != nil {
		t.Fatal(err)
	}
	return part, batches
}

// TestRemoteJournalRefused: a journal an executor hands back for a shard
// spec is folded only when it is that shard's whole journal. One of
// another campaign, one that journals an experiment outside the spec, one
// that lacks an experiment of it, and one of a spec folded already each
// fail the campaign with ErrFingerprintMismatch, and nothing of them
// reaches the campaign's journal or its OnExperiment.
func TestRemoteJournalRefused(t *testing.T) {
	cfg := familyBase(8)
	dir := t.TempDir()
	journalOf := func(name string, c CampaignConfig, spec ShardSpec) []byte {
		c.Checkpoint = filepath.Join(dir, name)
		if _, err := RunShard(c, spec); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	specs := PlanRoundShards(cfg, all, 2)
	own := [][]byte{journalOf("own0", cfg, specs[0]), journalOf("own1", cfg, specs[1])}
	other := cfg
	other.Seed++
	foreign := journalOf("foreign", other, PlanRoundShards(other, all, 2)[0])
	// Shard 0's journal with shard 1's first record after its own, and
	// without its last one.
	lines0, lines1 := journalLines(own[0]), journalLines(own[1])
	join := func(lines ...[]byte) []byte { return append(bytes.Join(lines, []byte("\n")), '\n') }
	outside := join(append(append([][]byte(nil), lines0...), lines1[1])...)
	missing := join(lines0[:len(lines0)-1]...)

	for _, tc := range []struct {
		name  string
		folds func(fold func(ShardSpec, []byte) error) error
		kept  int // experiments folded before the refused journal
	}{
		{"foreign", func(fold func(ShardSpec, []byte) error) error { return fold(specs[0], foreign) }, 0},
		{"sibling", func(fold func(ShardSpec, []byte) error) error { return fold(specs[0], own[1]) }, 0},
		{"outside", func(fold func(ShardSpec, []byte) error) error { return fold(specs[0], outside) }, 0},
		{"missing", func(fold func(ShardSpec, []byte) error) error { return fold(specs[0], missing) }, 0},
		{"twice", func(fold func(ShardSpec, []byte) error) error {
			if err := fold(specs[0], own[0]); err != nil {
				return err
			}
			return fold(specs[0], own[0])
		}, specs[0].Size()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Checkpoint = filepath.Join(t.TempDir(), "journal")
			folded := 0
			c.OnExperiment = func(ExperimentSummary, bool) { folded++ }
			_, err := RunRemoteContext(context.Background(), c, func(_ context.Context, _ []int, fold func(ShardSpec, []byte) error) error {
				return tc.folds(fold)
			})
			if !errors.Is(err, ErrFingerprintMismatch) {
				t.Fatalf("the campaign returned %v, want %v", err, ErrFingerprintMismatch)
			}
			data, rerr := os.ReadFile(c.Checkpoint)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if lines := len(journalLines(data)) - 1; folded != tc.kept || lines != tc.kept {
				t.Errorf("%d experiments reached OnExperiment and %d the journal, want %d: %v", folded, lines, tc.kept, err)
			}
		})
	}

	// The journals themselves fold: the campaign is the local one.
	got, err := MergePartials(mustRemote(t, cfg, own))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "folded journals", want, got)
}

// mustRemote runs cfg remotely on an executor that folds journals, one
// per spec of PlanRoundShards(cfg, batch, len(journals)).
func mustRemote(t *testing.T, cfg CampaignConfig, journals [][]byte) *PartialResult {
	t.Helper()
	part, err := RunRemoteContext(context.Background(), cfg, func(_ context.Context, ids []int, fold func(ShardSpec, []byte) error) error {
		for i, spec := range PlanRoundShards(cfg, ids, len(journals)) {
			if err := fold(spec, journals[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return part
}
