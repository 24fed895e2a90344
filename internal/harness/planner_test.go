package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
)

// The adaptive planner's determinism contract: every decision is a pure
// function of fingerprinted configuration plus seed-determined outcomes,
// so worker counts, kill/resume boundaries, shard layouts, and merge
// orders cannot change the executed experiment set or the final bytes.

func adaptiveConfig(runs int, target float64) CampaignConfig {
	app := apps.NewHydro()
	return CampaignConfig{
		App:       app,
		Params:    app.TestParams(),
		Sampling:  Sampling{Runs: runs, Seed: 2015, TargetCI: target},
		Execution: Execution{SampleEvery: 64},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAdaptiveWorkerCountInvariance(t *testing.T) {
	serial := adaptiveConfig(80, 0.25)
	serial.Workers = 1
	wide := adaptiveConfig(80, 0.25)
	wide.Workers = 8

	a, err := RunCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(wide)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally.Total >= 80 {
		t.Fatalf("adaptive campaign spent the whole budget (%d); the target CI never engaged", a.Tally.Total)
	}
	assertResultsIdentical(t, "adaptive workers 1 vs 8", a, b)
	if !jsonEqual(t, a, b) {
		t.Error("adaptive results not byte-identical across worker counts")
	}
}

// TestAdaptiveResumeMatchesUninterrupted kills an adaptive campaign
// mid-round and resumes it: the re-derived round sequence must spend the
// same experiments and produce the same bytes as an uninterrupted run.
func TestAdaptiveResumeMatchesUninterrupted(t *testing.T) {
	full, err := RunCampaign(adaptiveConfig(80, 0.25))
	if err != nil {
		t.Fatal(err)
	}

	ck := t.TempDir() + "/adaptive.ckpt.jsonl"
	interrupted := adaptiveConfig(80, 0.25)
	interrupted.Checkpoint = ck
	interrupted.StopAfter = full.Tally.Total / 2
	if _, err := RunCampaign(interrupted); err == nil {
		t.Fatal("interrupted adaptive campaign returned no error")
	}

	resume := adaptiveConfig(80, 0.25)
	resume.Checkpoint = ck
	resume.Resume = true
	got, err := RunCampaign(resume)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "adaptive resumed vs uninterrupted", full, got)
	if !jsonEqual(t, full, got) {
		t.Error("adaptive resume not byte-identical to uninterrupted run")
	}
}

// TestAdaptiveUnreachableTargetDegeneratesToFixedN pins the API redesign's
// compatibility anchor: an adaptive campaign whose target can never be met
// exhausts every stratum and must be byte-identical to the fixed-size
// stratified campaign over the same budget.
func TestAdaptiveUnreachableTargetDegeneratesToFixedN(t *testing.T) {
	adaptive := adaptiveConfig(40, 1e-9)
	fixed := adaptiveConfig(40, 0)
	fixed.Strata = defaultStrataPhases // stratified reporting, no stopping policy

	a, err := RunCampaign(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally.Total != 40 {
		t.Fatalf("unreachable target spent %d of 40", a.Tally.Total)
	}
	f, err := RunCampaign(fixed)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "unreachable target vs fixed-N", a, f)
	if !jsonEqual(t, a, f) {
		t.Error("exhausted adaptive campaign not byte-identical to fixed-N stratified run")
	}
}

// runCoordinatedRounds drives the exported planner to convergence the way
// a coordinator does: each round's IDs go out as explicit-ID shards over
// RunShard and the round's merged per-stratum tallies fold back. It
// returns every round's IDs and every shard partial, in execution order.
func runCoordinatedRounds(t *testing.T, cfg CampaignConfig, shards int) ([][]int, []*PartialResult) {
	t.Helper()
	planner, err := NewAdaptivePlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]int
	var parts []*PartialResult
	for {
		ids := planner.NextRound()
		if ids == nil {
			break
		}
		rounds = append(rounds, ids)
		var roundAcc *PartialResult
		for i, spec := range PlanRoundShards(cfg, ids, shards) {
			p, err := RunShard(cfg, spec)
			if err != nil {
				t.Fatalf("round %d shard %d: %v", len(rounds), i, err)
			}
			parts = append(parts, p)
			roundAcc = mergeInto(t, roundAcc, p)
		}
		planner.Fold(roundAcc.Strata)
	}
	if !planner.Done() {
		t.Fatal("planner never converged")
	}
	return rounds, parts
}

// TestAdaptiveCoordinatedRoundsMatchLocal drives the exported planner the
// way a coordinator does — rounds split into explicit-ID shards, executed
// via RunShard, merged in opposite orders — and requires both merge orders
// and the local engine to agree byte-for-byte.
func TestAdaptiveCoordinatedRoundsMatchLocal(t *testing.T) {
	cfg := adaptiveConfig(80, 0.25)
	local, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, parts := runCoordinatedRounds(t, cfg, 3)
	var fwd, rev *PartialResult
	for i := range parts {
		fwd = mergeInto(t, fwd, parts[i])
		rev = mergeInto(t, rev, parts[len(parts)-1-i])
	}
	fwd.AdaptiveDone = true
	rev.AdaptiveDone = true
	a, err := fwd.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rev.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "forward vs reverse merge", a, b)
	assertResultsIdentical(t, "coordinated vs local", a, local)
	if !jsonEqual(t, a, b) || !jsonEqual(t, a, local) {
		t.Error("coordinated adaptive rounds not byte-identical to the local engine")
	}
}

// TestAdaptivePlannerRoundSequencePinned pins the round sequences the
// planner produced for this file's fixtures when callers still built its
// stratification themselves (BuildStrata + NewAdaptivePlanner(cfg, strata),
// recorded at that commit): fetching the stratification from the pack must
// not move a single ID between rounds.
func TestAdaptivePlannerRoundSequencePinned(t *testing.T) {
	for _, fx := range []struct {
		runs   int
		target float64
		sizes  []int
		hash   string // FNV-64a over each round's printed ID list
	}{
		{80, 0.25, []int{16, 16, 16}, "dc451e2ccb8514e0"},
		{40, 1e-9, []int{16, 16, 8}, "483b905da445d6d1"},
		{12, 0.25, []int{12}, "3a06181cfce1f71b"},
	} {
		rounds, _ := runCoordinatedRounds(t, adaptiveConfig(fx.runs, fx.target), 1)
		h := fnv.New64a()
		var sizes []int
		for _, ids := range rounds {
			sizes = append(sizes, len(ids))
			fmt.Fprintln(h, ids)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); !reflect.DeepEqual(sizes, fx.sizes) || got != fx.hash {
			t.Errorf("budget %d target %g: rounds %v hash %s, want %v hash %s",
				fx.runs, fx.target, sizes, got, fx.sizes, fx.hash)
		}
	}
}

// TestAdaptiveResumeFromNonAdaptiveJournal pins the typed diagnosis: a
// -target-ci resume pointed at a journal written by the same campaign
// without the adaptive policy fails with a FieldError naming the knob,
// not an opaque fingerprint hash.
func TestAdaptiveResumeFromNonAdaptiveJournal(t *testing.T) {
	ck := t.TempDir() + "/fixed.ckpt.jsonl"
	fixed := adaptiveConfig(12, 0)
	fixed.Checkpoint = ck
	if _, err := RunCampaign(fixed); err != nil {
		t.Fatal(err)
	}

	adaptive := adaptiveConfig(12, 0.25)
	adaptive.Checkpoint = ck
	adaptive.Resume = true
	_, err := RunCampaign(adaptive)
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a FieldError", err)
	}
	if fe.Field != "Sampling.TargetCI" {
		t.Fatalf("FieldError names %q, want Sampling.TargetCI", fe.Field)
	}
}

// TestLegacyFingerprintUnchanged pins the exact fingerprint of a
// pre-redesign configuration: the typed sub-struct regrouping and the
// adaptive suffix must not disturb journals or archives written before
// either existed.
func TestLegacyFingerprintUnchanged(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 40, Seed: 7}}
	if got, want := cfg.Fingerprint(), "64fdd2fe141fad53"; got != want {
		t.Errorf("legacy fingerprint drifted: %s, want %s", got, want)
	}
	adaptive := cfg
	adaptive.TargetCI = 0.2
	if got := adaptive.Fingerprint(); got == cfg.Fingerprint() {
		t.Error("adaptive policy does not alter the fingerprint; incompatible journals would merge")
	}
}

func TestAdaptiveRoundSize(t *testing.T) {
	cases := []struct{ budget, want int }{
		{1, 1}, {10, 10}, {100, 16}, {200, 25}, {5000, 512}, {100000, 512},
	}
	for _, tc := range cases {
		if got := adaptiveRoundSize(tc.budget); got != tc.want {
			t.Errorf("adaptiveRoundSize(%d) = %d, want %d", tc.budget, got, tc.want)
		}
	}
}

func TestWorstP(t *testing.T) {
	if got := worstP(classify.Tally{}); got != 0.5 {
		t.Errorf("worstP(empty) = %v, want 0.5", got)
	}
	var t1 classify.Tally
	t1.Counts[classify.Vanished] = 9
	t1.Counts[classify.Crashed] = 1
	t1.Total = 10
	// 0.9 and 0.1 tie on variance; either pins the same sample size.
	if got := worstP(t1); got != 0.9 && got != 0.1 {
		t.Errorf("worstP(9/1) = %v, want 0.9 or 0.1", got)
	}
}

func TestPlanRoundShards(t *testing.T) {
	cfg := adaptiveConfig(40, 0.25)
	ids := []int{0, 3, 5, 8, 13, 21, 34}
	specs := PlanRoundShards(cfg, ids, 3)
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	var union []int
	for _, s := range specs {
		if s.Size() != len(s.IDs) {
			t.Errorf("spec %d Size %d != len(IDs) %d", s.Index, s.Size(), len(s.IDs))
		}
		if s.Fingerprint != cfg.Fingerprint() {
			t.Errorf("spec %d fingerprint %s, want %s", s.Index, s.Fingerprint, cfg.Fingerprint())
		}
		union = append(union, s.IDs...)
	}
	if len(union) != len(ids) {
		t.Fatalf("specs cover %d IDs, want %d", len(union), len(ids))
	}
	for i, id := range union {
		if id != ids[i] {
			t.Fatalf("union[%d] = %d, want %d", i, id, ids[i])
		}
	}
	// More workers than IDs: empty shards are omitted, coverage intact.
	small := PlanRoundShards(cfg, []int{4, 7}, 5)
	if len(small) != 2 || small[0].IDs[0] != 4 || small[1].IDs[0] != 7 {
		t.Fatalf("sparse split wrong: %+v", small)
	}
}

func mergeInto(t *testing.T, acc, p *PartialResult) *PartialResult {
	t.Helper()
	if acc == nil {
		return p.Clone()
	}
	if err := acc.Merge(p); err != nil {
		t.Fatal(err)
	}
	return acc
}

func jsonEqual(t *testing.T, a, b *CampaignResult) bool {
	t.Helper()
	return string(mustJSON(t, a)) == string(mustJSON(t, b))
}
