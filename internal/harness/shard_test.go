package harness

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
)

// runShardedVariant executes cfg as the given partition of shard specs,
// round-trips every partial through JSON (the wire format the service
// ships between workers and coordinator), merges them in the given order,
// and finalizes.
func runShardedVariant(t *testing.T, cfg CampaignConfig, specs []ShardSpec, order []int) *CampaignResult {
	t.Helper()
	parts := make([]*PartialResult, len(specs))
	for i, spec := range specs {
		p, err := RunShard(cfg, spec)
		if err != nil {
			t.Fatalf("shard %d [%d,%d): %v", spec.Index, spec.From, spec.To, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal shard %d: %v", spec.Index, err)
		}
		var rt PartialResult
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatalf("unmarshal shard %d: %v", spec.Index, err)
		}
		parts[i] = &rt
	}
	ordered := make([]*PartialResult, len(parts))
	for i, j := range order {
		ordered[i] = parts[j]
	}
	res, err := MergePartials(ordered...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return res
}

// TestShardMergeByteIdentical is the merge-correctness property test: a
// fixed-seed campaign split at arbitrary shard boundaries — including
// 1-experiment and empty shards — and merged in shuffled order must
// finalize byte-identical (rendered study and JSON, FPS fits included) to
// the unsharded run.
func TestShardMergeByteIdentical(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 24, Seed: 424242}, Execution: Execution{SampleEvery: 64, Workers: 2},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7)) // fixed seed: deterministic partitions
	shuffled := func(n int) []int {
		order := rng.Perm(n)
		return order
	}

	t.Run("planned-4-shards", func(t *testing.T) {
		specs, err := PlanShards(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := runShardedVariant(t, cfg, specs, shuffled(len(specs)))
		assertSameStudy(t, "4 shards", want, got)
	})

	t.Run("one-experiment-shards", func(t *testing.T) {
		// Every shard holds exactly one experiment.
		specs, err := PlanShards(cfg, cfg.Runs)
		if err != nil {
			t.Fatal(err)
		}
		got := runShardedVariant(t, cfg, specs, shuffled(len(specs)))
		assertSameStudy(t, "1-exp shards", want, got)
	})

	t.Run("empty-shards", func(t *testing.T) {
		// More shards than runs: the tail shards are empty and must merge
		// as no-ops.
		specs, err := PlanShards(cfg, cfg.Runs+5)
		if err != nil {
			t.Fatal(err)
		}
		empties := 0
		for _, s := range specs {
			if s.Size() == 0 {
				empties++
			}
		}
		if empties != 5 {
			t.Fatalf("want 5 empty shards, got %d", empties)
		}
		got := runShardedVariant(t, cfg, specs, shuffled(len(specs)))
		assertSameStudy(t, "empty shards", want, got)
	})

	t.Run("arbitrary-boundaries", func(t *testing.T) {
		// Random uneven partitions of [0, Runs), merged in random order.
		fp := cfg.Fingerprint()
		for trial := 0; trial < 3; trial++ {
			cuts := map[int]bool{0: true, cfg.Runs: true}
			for i := 0; i < 1+rng.Intn(6); i++ {
				cuts[rng.Intn(cfg.Runs+1)] = true
			}
			var bounds []int
			for c := range cuts {
				bounds = append(bounds, c)
			}
			sortInts(bounds)
			var specs []ShardSpec
			for i := 0; i+1 < len(bounds); i++ {
				specs = append(specs, ShardSpec{
					Index: i, Shards: len(bounds) - 1,
					From: bounds[i], To: bounds[i+1],
					Runs: cfg.Runs, Fingerprint: fp,
				})
			}
			got := runShardedVariant(t, cfg, specs, shuffled(len(specs)))
			assertSameStudy(t, "arbitrary boundaries", want, got)
		}
	})

	t.Run("sites-enabled", func(t *testing.T) {
		// Per-site tallies must fold like every other mergeable slice:
		// forward and reverse merge orders, 1-experiment shards, and empty
		// shards all finalize to the unsharded bytes (ranking included).
		scfg := cfg
		scfg.Sites = true
		swant, err := RunCampaign(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(swant.Sites) == 0 {
			t.Fatal("sites-enabled campaign produced no per-site ranking")
		}
		specs, err := PlanShards(scfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameStudy(t, "sites forward order", swant,
			runShardedVariant(t, scfg, specs, []int{0, 1, 2, 3}))
		assertSameStudy(t, "sites reverse order", swant,
			runShardedVariant(t, scfg, specs, []int{3, 2, 1, 0}))

		specs, err = PlanShards(scfg, scfg.Runs+3)
		if err != nil {
			t.Fatal(err)
		}
		got := runShardedVariant(t, scfg, specs, shuffled(len(specs)))
		assertSameStudy(t, "sites 1-exp and empty shards", swant, got)
	})
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestShardMergeWithRetentionCaps checks the capped-retention merge rules:
// lowest-K summaries and per-outcome profile caps must select the same
// records whether the campaign ran whole or sharded.
func TestShardMergeWithRetentionCaps(t *testing.T) {
	app := apps.NewFE()
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 18, Seed: 1717}, Execution: Execution{SampleEvery: 64, Workers: 2}, Retention: Retention{MaxSummaries: 5, KeepProfiles: 1},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := runShardedVariant(t, cfg, specs, []int{2, 0, 1})
	assertSameStudy(t, "capped retention", want, got)
	if len(got.Experiments) != 5 {
		t.Fatalf("retained %d summaries, want 5", len(got.Experiments))
	}
}

// TestPlanShards pins the planner's contract: contiguous cover of [0,
// Runs), near-equal sizes, fingerprint on every spec.
func TestPlanShards(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 10, Seed: 1}}
	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRanges := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for i, s := range specs {
		if s.From != wantRanges[i][0] || s.To != wantRanges[i][1] {
			t.Errorf("shard %d: [%d,%d), want [%d,%d)", i, s.From, s.To, wantRanges[i][0], wantRanges[i][1])
		}
		if s.Fingerprint != cfg.Fingerprint() {
			t.Errorf("shard %d: fingerprint %q, want %q", i, s.Fingerprint, cfg.Fingerprint())
		}
		if s.Runs != cfg.Runs || s.Shards != 3 || s.Index != i {
			t.Errorf("shard %d: bad metadata %+v", i, s)
		}
	}
	if _, err := PlanShards(cfg, 0); err == nil {
		t.Error("PlanShards(0) should fail")
	}
	var fe *FieldError
	if _, err := PlanShards(CampaignConfig{App: app, Params: app.TestParams()}, 2); !errors.As(err, &fe) {
		t.Errorf("PlanShards with Runs=0: want FieldError, got %v", err)
	}
}

// TestShardMergeGuards checks that Merge and Finalize refuse incompatible
// or incomplete inputs with the exported sentinels.
func TestShardMergeGuards(t *testing.T) {
	base := func() *PartialResult {
		return &PartialResult{
			Fingerprint: "abc", Runs: 10,
			Ranges: []IDRange{{From: 0, To: 5}},
		}
	}
	t.Run("overlap", func(t *testing.T) {
		p, q := base(), base()
		q.Ranges = []IDRange{{From: 4, To: 10}}
		if err := p.Merge(q); !errors.Is(err, ErrShardOverlap) {
			t.Errorf("want ErrShardOverlap, got %v", err)
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		p, q := base(), base()
		q.Fingerprint = "xyz"
		q.Ranges = []IDRange{{From: 5, To: 10}}
		if err := p.Merge(q); !errors.Is(err, ErrFingerprintMismatch) {
			t.Errorf("want ErrFingerprintMismatch, got %v", err)
		}
	})
	t.Run("retention", func(t *testing.T) {
		p, q := base(), base()
		q.MaxSummaries = 3
		q.Ranges = []IDRange{{From: 5, To: 10}}
		if err := p.Merge(q); !errors.Is(err, ErrMergeMismatch) {
			t.Errorf("want ErrMergeMismatch, got %v", err)
		}
	})
	t.Run("incomplete", func(t *testing.T) {
		if _, err := base().Finalize(); !errors.Is(err, ErrIncompleteCampaign) {
			t.Errorf("want ErrIncompleteCampaign, got %v", err)
		}
	})
	t.Run("spec-fingerprint", func(t *testing.T) {
		app := apps.NewHydro()
		cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 4, Seed: 9}}
		spec := ShardSpec{Shards: 1, To: 4, Runs: 4, Fingerprint: "0000000000000000"}
		if _, err := RunShard(cfg, spec); !errors.Is(err, ErrFingerprintMismatch) {
			t.Errorf("want ErrFingerprintMismatch, got %v", err)
		}
	})
	t.Run("bad-range", func(t *testing.T) {
		app := apps.NewHydro()
		cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 4, Seed: 9}}
		var fe *FieldError
		if _, err := RunShard(cfg, ShardSpec{From: 2, To: 9, Runs: 4}); !errors.As(err, &fe) {
			t.Errorf("want FieldError, got %v", err)
		}
	})
}

// TestShardCheckpointResume checks a shard's own checkpoint journal: a
// shard interrupted mid-range resumes from its journal and still merges
// byte-identical with its siblings; a sibling shard refuses that journal.
func TestShardCheckpointResume(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 12, Seed: 31}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanShards(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Interrupt shard 0 after 2 experiments, then resume it.
	c0 := cfg
	c0.Checkpoint = dir + "/shard0.ckpt.jsonl"
	c0.StopAfter = 2
	if _, err := RunShard(c0, specs[0]); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	c0.StopAfter = 0
	c0.Resume = true
	p0, err := RunShard(c0, specs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1 must refuse shard 0's journal: same campaign, different range.
	c1 := cfg
	c1.Checkpoint = c0.Checkpoint
	c1.Resume = true
	if _, err := RunShard(c1, specs[1]); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("sibling journal: want fingerprint rejection, got %v", err)
	}

	p1, err := RunShard(cfg, specs[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergePartials(p1, p0) // reversed order on purpose
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "resumed shard merge", want, got)
}

// TestCampaignConfigValidate pins the typed-field-error API.
func TestCampaignConfigValidate(t *testing.T) {
	app := apps.NewHydro()
	ok := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 5}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*CampaignConfig)
		field string
	}{
		{"nil-app", func(c *CampaignConfig) { c.App = nil }, "App"},
		{"no-runs", func(c *CampaignConfig) { c.Runs = 0 }, "Runs"},
		{"neg-lambda", func(c *CampaignConfig) { c.MultiFaultLambda = -1 }, "MultiFaultLambda"},
		{"neg-hang", func(c *CampaignConfig) { c.HangFactor = -2 }, "HangFactor"},
		{"resume-no-ckpt", func(c *CampaignConfig) { c.Resume = true }, "Resume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok
			tc.mut(&c)
			err := c.Validate()
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("want FieldError, got %v", err)
			}
			if fe.Field != tc.field {
				t.Errorf("field %q, want %q", fe.Field, tc.field)
			}
			if !reflect.DeepEqual(c.Validate(), err) {
				t.Error("Validate not deterministic")
			}
		})
	}
}
