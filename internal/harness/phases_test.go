package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/obs"
)

// TestPhaseTracingCampaign: with Timings and OnPhase set, every executed
// experiment is traced, the per-outcome histogram counts match the
// deterministic outcome tally, and every trace has its phases populated.
func TestPhaseTracingCampaign(t *testing.T) {
	app := apps.NewHydro()
	timings := NewCampaignTimings()
	var mu sync.Mutex
	var traces []PhaseTrace
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(),

		Timings: timings,
		OnPhase: func(tr PhaseTrace) {
			mu.Lock()
			traces = append(traces, tr)
			mu.Unlock()
		}, Sampling: Sampling{Runs: 12, Seed: 99}, Execution: Execution{Workers: 3},
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != cfg.Runs {
		t.Fatalf("OnPhase saw %d experiments, want %d", len(traces), cfg.Runs)
	}
	if got := timings.Count(); got != uint64(cfg.Runs) {
		t.Errorf("timings counted %d experiments, want %d", got, cfg.Runs)
	}
	for o := 0; o < classify.NumOutcomes; o++ {
		if got, want := timings.ByOutcome[o].Count(), uint64(res.Tally.Counts[o]); got != want {
			t.Errorf("outcome %s: histogram count %d != tally %d", classify.Outcome(o), got, want)
		}
	}
	seen := map[int]bool{}
	for _, tr := range traces {
		if seen[tr.ID] {
			t.Errorf("experiment %d traced twice", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Execute <= 0 || tr.Total < tr.Execute {
			t.Errorf("experiment %d: implausible phases %+v", tr.ID, tr)
		}
	}
}

// TestPhaseTracingDeterminism: tracing must not perturb results — the
// same campaign with and without hooks yields identical aggregates.
func TestPhaseTracingDeterminism(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 8, Seed: 3}, Execution: Execution{Workers: 2}}
	plain, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timings = NewCampaignTimings()
	cfg.OnPhase = func(PhaseTrace) {}
	traced, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(traced)
	if string(a) != string(b) {
		t.Error("tracing changed campaign results")
	}
}

// TestShardTimingsMerge: shards run with tracing carry their histograms
// in the PartialResult, and merging reproduces the unsharded campaign's
// distribution counts — outcome-for-outcome — plus byte-identical
// scientific results. (Latencies are wall-clock and so not
// deterministic; the counts are.)
func TestShardTimingsMerge(t *testing.T) {
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 18, Seed: 5150}, Execution: Execution{Workers: 2},
	}
	refCfg := cfg
	refCfg.Timings = NewCampaignTimings()
	ref, err := RunCampaign(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*PartialResult
	for _, spec := range specs {
		scfg := cfg
		scfg.Timings = NewCampaignTimings()
		p, err := RunShard(scfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if p.Timings == nil || p.Timings.Count() == 0 {
			t.Fatalf("shard %d carried no timings", spec.Index)
		}
		// Round-trip through JSON like the service transport does.
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Index%2 == 1 {
			b = withLegacyRestoreFrac(t, b, p.Timings.RestoreBytes.Count())
		}
		var back PartialResult
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, &back)
	}

	acc := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := acc.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := acc.Timings.Count(); got != uint64(cfg.Runs) {
		t.Errorf("merged timings count %d, want %d", got, cfg.Runs)
	}
	for o := 0; o < classify.NumOutcomes; o++ {
		if got, want := acc.Timings.ByOutcome[o].Count(), refCfg.Timings.ByOutcome[o].Count(); got != want {
			t.Errorf("outcome %s: merged count %d != unsharded count %d", classify.Outcome(o), got, want)
		}
		if got, want := acc.Timings.ByOutcome[o].Count(), uint64(ref.Tally.Counts[o]); got != want {
			t.Errorf("outcome %s: merged count %d != tally %d", classify.Outcome(o), got, want)
		}
	}
	merged, err := acc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(merged)
	if string(a) != string(b) {
		t.Error("merged sharded result differs from unsharded run")
	}
}

// withLegacyRestoreFrac adds to a partial's JSON the restoreFrac
// histogram that builds with a delta restore carried in their timings: the
// dirty-block fraction of each of its forks, in that histogram's bucket
// layout. A newer coordinator must still merge such a partial, with the
// same results.
func withLegacyRestoreFrac(t *testing.T, partial []byte, forks uint64) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(partial, &doc); err != nil {
		t.Fatal(err)
	}
	var timings map[string]json.RawMessage
	if err := json.Unmarshal(doc["timings"], &timings); err != nil {
		t.Fatal(err)
	}
	counts := make([]uint64, 13)
	counts[3] = forks
	frac, err := json.Marshal(obs.HistogramData{
		Bounds: []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1},
		Counts: counts,
		Count:  forks,
		Sum:    0.01 * float64(forks),
	})
	if err != nil {
		t.Fatal(err)
	}
	timings["restoreFrac"] = frac
	if doc["timings"], err = json.Marshal(timings); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalTraceStamp: cfg.Trace lands in the checkpoint journal
// header, and a resume under the same fingerprint still works (the
// trace is observational, never validated).
func TestJournalTraceStamp(t *testing.T) {
	app := apps.NewHydro()
	path := filepath.Join(t.TempDir(), "trace.ckpt.jsonl")
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(),

		Trace: "abc123/s0", Sampling: Sampling{Runs: 4, Seed: 11}, Execution: Execution{Workers: 1}, Persistence: Persistence{Checkpoint: path},
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty journal")
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Trace != "abc123/s0" {
		t.Errorf("journal header trace = %q, want abc123/s0", hdr.Trace)
	}
	cfg.Resume = true
	cfg.Trace = "different-resume-trace"
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatalf("resume under a new trace failed: %v", err)
	}
}

// TestCampaignTimingsMergeErrors: nil handling and layout mismatches.
func TestCampaignTimingsMergeErrors(t *testing.T) {
	var nilT *CampaignTimings
	nilT.Observe(PhaseTrace{}) // no-op
	if nilT.Count() != 0 || nilT.Clone() != nil {
		t.Error("nil CampaignTimings misbehaved")
	}
	a := NewCampaignTimings()
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
	a.Observe(PhaseTrace{Outcome: classify.Vanished, Total: 1, Execute: 1})
	c := a.Clone()
	if c.Count() != a.Count() {
		t.Error("clone lost observations")
	}
	c.Observe(PhaseTrace{Outcome: classify.Vanished})
	if c.Count() == a.Count() {
		t.Error("clone aliases the original")
	}
}
