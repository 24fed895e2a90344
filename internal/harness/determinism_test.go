package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
)

// TestCampaignResumeToleratesTruncatedTail simulates a kill mid-write: the
// journal's final line is cut short. Resume must drop the partial record,
// re-run that experiment, and still match the uninterrupted result.
func TestCampaignResumeToleratesTruncatedTail(t *testing.T) {
	app := apps.NewHydro()
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 10, Seed: 13}, Execution: Execution{SampleEvery: 64, Workers: 2},
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := base
	interrupted.Checkpoint = ck
	interrupted.StopAfter = 5
	if _, err := RunCampaign(interrupted); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	f, err := os.OpenFile(ck, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"exp","sum":{"ID":9,"Outc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resume := base
	resume.Checkpoint = ck
	resume.Resume = true
	got, err := RunCampaign(resume)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "resume after truncated tail", full, got)
}

// TestCampaignResumeAfterTornTail cuts a journal inside its last record,
// so that its last line has no newline, and resumes it twice: once
// interrupted again, once to completion. The first resume must cut the
// torn line off before it appends. Appended below it, its first record
// would join the torn line, and every later resume would stop reading
// there and re-run what the journal already holds.
func TestCampaignResumeAfterTornTail(t *testing.T) {
	app := apps.NewHydro()
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 16, Seed: 29}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := base
	interrupted.Checkpoint = ck
	interrupted.StopAfter = 5
	if _, err := RunCampaign(interrupted); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(ck, data[:(last+len(data))/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// counting resumes ck and counts the experiments it replays from the
	// journal and the ones it runs, which it journals.
	counting := func(stopAfter int) (res *CampaignResult, replayed, ran int, err error) {
		cfg := base
		cfg.Checkpoint = ck
		cfg.Resume = true
		cfg.StopAfter = stopAfter
		cfg.OnExperiment = func(_ ExperimentSummary, resumed bool) {
			if resumed {
				replayed++
			} else {
				ran++
			}
		}
		res, err = RunCampaign(cfg)
		return res, replayed, ran, err
	}
	_, kept, ran, err := counting(5)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	got, replayed, _, err := counting(0)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != kept+ran {
		t.Errorf("the last resume replayed %d records, want the %d the journal kept and the %d the resume before it wrote",
			replayed, kept, ran)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Error("result after resuming a torn journal differs from the uninterrupted run")
	}
	data, err = os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if i == 0 {
			rec.header = &journalHeader{}
		}
		if line[len(line)-1] != '\n' || decodeRecord(bytes.TrimSpace(line), &rec) != nil {
			t.Fatalf("journal line %d does not decode: %.80q", i+1, line)
		}
	}
}

// TestSightedExperimentsOneOutcome re-executes, at GOMAXPROCS 8 on two
// workers, the experiments in which a rank's failure was once seen to race
// its peers' own — LULESH at campaign scale, AMG2013 at test scale, and
// experiment 11 of TestCampaignResumeAfterTornTail's campaign — 200 times
// each (20 under -race), and requires one RunOutcome per experiment.
func TestSightedExperimentsOneOutcome(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	hydro, amg := apps.NewHydro(), apps.NewAMG()
	for _, tc := range []struct {
		app    apps.App
		params apps.Params
		seed   uint64
		ids    []int
	}{
		{hydro, hydro.DefaultParams(), 2015, []int{208, 347}}, {hydro, hydro.DefaultParams(), 2020, []int{55}},
		{hydro, hydro.DefaultParams(), 2035, []int{30}}, {amg, amg.TestParams(), 2015, []int{357, 889, 1479}},
		{hydro, hydro.TestParams(), 29, []int{11}},
	} {
		cfg := CampaignConfig{App: tc.app, Params: tc.params, Sampling: Sampling{Runs: 1500, Seed: tc.seed},
			Execution: Execution{SampleEvery: 256, Workers: 2, Snapshots: 64}}
		rec, first := record(t, false), map[string]outcomeView{}
		for i := 0; i < 200 && !(raceEnabled && i == 20); i++ {
			if _, err := RunShard(cfg, ShardSpec{Shards: 1, IDs: tc.ids, Runs: cfg.Runs, Fingerprint: cfg.Fingerprint()}); err != nil {
				t.Fatal(err)
			}
			for plan, o := range rec.runs {
				if w, ok := first[plan]; !ok {
					first[plan] = withoutTelemetry(o)
				} else if g := withoutTelemetry(o); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s seed %d, plan %s, run %d:\n got: %+v\nwant: %+v", tc.app.Name(), tc.seed, plan, i, g, w)
				}
			}
		}
		if rec.stop(); len(first) != len(tc.ids) {
			t.Errorf("%s seed %d: %d plans for experiments %v", tc.app.Name(), tc.seed, len(first), tc.ids)
		}
	}
}

// TestCampaignResumeRejectsMismatchedConfig: a journal written under one
// seed must refuse to seed a campaign with another.
func TestCampaignResumeRejectsMismatchedConfig(t *testing.T) {
	app := apps.NewHydro()
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 1}, Execution: Execution{Workers: 2},
	}
	withCk := base
	withCk.Checkpoint = ck
	if _, err := RunCampaign(withCk); err != nil {
		t.Fatal(err)
	}
	other := base
	other.Seed = 2
	other.Checkpoint = ck
	other.Resume = true
	if _, err := RunCampaign(other); err == nil {
		t.Fatal("resume under a different seed was accepted")
	}
	if _, err := RunCampaign(CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 1}, Persistence: Persistence{Resume: true},
	}); err == nil {
		t.Fatal("Resume without Checkpoint was accepted")
	}
}

// TestCampaignCancelLeavesResumableJournal cancels a campaign through its
// context after a few live completions and requires (a) ErrInterrupted
// with the cancellation cause, (b) a journal that resumes to results
// byte-identical to an uninterrupted run.
func TestCampaignCancelLeavesResumableJournal(t *testing.T) {
	app := apps.NewHydro()
	ck := filepath.Join(t.TempDir(), "cancel.ckpt.jsonl")
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 16, Seed: 31}, Execution: Execution{SampleEvery: 64, Workers: 2},
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var live atomic.Int32
	interrupted := base
	interrupted.Checkpoint = ck
	interrupted.OnExperiment = func(sum ExperimentSummary, resumed bool) {
		if resumed {
			t.Errorf("fresh campaign replayed experiment %d from a journal", sum.ID)
		}
		if live.Add(1) == 3 {
			cancel()
		}
	}
	_, err = RunCampaignContext(ctx, interrupted)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled campaign returned %v, want ErrInterrupted", err)
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("interrupt error %q does not carry the cancellation cause", err)
	}
	if n := live.Load(); n >= 16 {
		t.Fatalf("campaign ran all %d experiments despite cancellation", n)
	}

	resume := base
	resume.Checkpoint = ck
	resume.Resume = true
	var resumed atomic.Int32
	resume.OnExperiment = func(sum ExperimentSummary, wasResumed bool) {
		if wasResumed {
			resumed.Add(1)
		}
	}
	got, err := RunCampaign(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Load() == 0 {
		t.Error("resume replayed no journal records")
	}
	assertSameStudy(t, "resume after cancel", full, got)
}

// TestCampaignJournalRejectionPaths covers every way a checkpoint journal
// can be refused: wrong version, wrong fingerprint, missing header, and an
// empty file.
func TestCampaignJournalRejectionPaths(t *testing.T) {
	app := apps.NewHydro()
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 11}, Execution: Execution{Workers: 2},
	}
	write := func(t *testing.T) (string, []string) {
		ck := filepath.Join(t.TempDir(), "ck.jsonl")
		cfg := base
		cfg.Checkpoint = ck
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		return ck, strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	}
	rewrite := func(t *testing.T, ck string, lines []string) {
		if err := os.WriteFile(ck, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resumeErr := func(t *testing.T, ck string) error {
		cfg := base
		cfg.Checkpoint = ck
		cfg.Resume = true
		_, err := RunCampaign(cfg)
		return err
	}

	t.Run("wrong-version", func(t *testing.T) {
		ck, lines := write(t)
		lines[0] = strings.Replace(lines[0], fmt.Sprintf(`"version":%d`, JournalVersion), `"version":99`, 1)
		rewrite(t, ck, lines)
		err := resumeErr(t, ck)
		if err == nil || !strings.Contains(err.Error(), "journal version") {
			t.Fatalf("resume of version-99 journal returned %v, want version error", err)
		}
	})
	t.Run("wrong-fingerprint", func(t *testing.T) {
		ck, lines := write(t)
		hdr := lines[0]
		i := strings.Index(hdr, `"fingerprint":"`)
		if i < 0 {
			t.Fatalf("no fingerprint in header %q", hdr)
		}
		lines[0] = hdr[:i] + `"fingerprint":"0000000000000000"}`
		rewrite(t, ck, lines)
		err := resumeErr(t, ck)
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Fatalf("resume under forged fingerprint returned %v, want fingerprint error", err)
		}
	})
	t.Run("missing-header", func(t *testing.T) {
		ck, lines := write(t)
		rewrite(t, ck, lines[1:]) // first line is now an exp record
		err := resumeErr(t, ck)
		if err == nil || !strings.Contains(err.Error(), "malformed header") {
			t.Fatalf("resume of headerless journal returned %v, want header error", err)
		}
	})
	t.Run("empty-journal", func(t *testing.T) {
		ck, _ := write(t)
		if err := os.WriteFile(ck, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		err := resumeErr(t, ck)
		if err == nil || !strings.Contains(err.Error(), "empty journal") {
			t.Fatalf("resume of empty journal returned %v, want empty-journal error", err)
		}
	})
}

// TestCampaignGateBoundsParallelism runs a campaign whose Workers exceed
// its shared gate and requires (a) experiment concurrency never exceeds
// the gate's capacity, (b) the gate does not change results.
func TestCampaignGateBoundsParallelism(t *testing.T) {
	orig := coreRun
	defer func() { coreRun = orig }()
	var inFlight, peak atomic.Int32
	coreRun = func(prog *ir.Program, cfg core.RunConfig, snap *core.CampaignSnapshot) core.RunOutcome {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return orig(prog, cfg, snap)
	}

	app := apps.NewHydro()
	base := CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 12, Seed: 77}, Execution: Execution{SampleEvery: 64},
	}
	ungated, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}

	peak.Store(0)
	gated := base
	gated.Workers = 8
	gated.Gate = make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		gated.Gate <- struct{}{}
	}
	got, err := RunCampaign(gated)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("gate of 2 tokens allowed %d concurrent experiments", p)
	}
	assertSameStudy(t, "gated vs ungated", ungated, got)
}

// TestCampaignBoundedSummaryRetention: with MaxSummaries set, the resident
// summary set is bounded by the retention config while whole-campaign
// aggregates still cover every run.
func TestCampaignBoundedSummaryRetention(t *testing.T) {
	app := apps.NewHydro()
	res, err := RunCampaign(CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 20, Seed: 42}, Retention: Retention{MaxSummaries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 5 {
		t.Fatalf("retained %d summaries, want 5", len(res.Experiments))
	}
	for i, e := range res.Experiments {
		if e.ID != i {
			t.Fatalf("retained summary %d has ID %d, want the lowest-ID prefix", i, e.ID)
		}
	}
	if res.Tally.Total != 20 {
		t.Fatalf("tally total = %d, want 20 (aggregates must cover all runs)", res.Tally.Total)
	}

	// The bounded result must agree with the unbounded one on everything
	// that is not summary retention.
	unbounded, err := RunCampaign(CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 20, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tally, unbounded.Tally) {
		t.Error("bounded retention changed the tally")
	}
	if !reflect.DeepEqual(res.Model, unbounded.Model) {
		t.Error("bounded retention changed the model")
	}
	if !reflect.DeepEqual(res.Experiments, unbounded.Experiments[:5]) {
		t.Error("bounded summaries are not the lowest-ID prefix of the full set")
	}
}

// TestUnplannedRunNotAttributedToRankZero is the regression test for the
// empty-plan bug: a zero-fault plan must yield Planned=false and must not
// report rank 0 as injected, and FormatFig5 must exclude such runs.
func TestUnplannedRunNotAttributedToRankZero(t *testing.T) {
	app := apps.NewHydro()
	p := app.TestParams()
	inst := buildInstrumented(t, app, p)
	goldenRun := core.Run(inst, core.RunConfig{Ranks: p.Ranks})
	if goldenRun.Err != nil {
		t.Fatal(goldenRun.Err)
	}
	golden := classify.Golden{
		Outputs:    goldenRun.Outputs,
		Cycles:     goldenRun.Cycles,
		Iterations: goldenRun.Iterations,
	}
	cfg := CampaignConfig{App: app, Params: p, Execution: Execution{HangFactor: 4}}
	out := runExperiment(0, inst, inject.Plan{}, cfg,
		classify.DefaultCriteria(), golden, goldenRun.Cycles*4, nil, nil)
	sum := out.Sum
	if sum.Planned {
		t.Error("empty plan reported Planned=true")
	}
	if sum.Fired {
		t.Error("empty plan reported a fired fault")
	}
	if sum.MaxCML != 0 || sum.HasFit {
		t.Errorf("empty plan attributed rank-0 observations: MaxCML=%d HasFit=%v",
			sum.MaxCML, sum.HasFit)
	}
	if sum.Outcome != classify.Vanished {
		t.Errorf("fault-free run classified %v, want V", sum.Outcome)
	}

	planned := runExperiment(1, inst,
		inject.Plan{Faults: []inject.Fault{{Rank: 1, Site: 0, Bit: 3}}}, cfg,
		classify.DefaultCriteria(), golden, goldenRun.Cycles*4, nil, nil)
	if !planned.Sum.Planned || planned.Sum.InjRank != 1 {
		t.Errorf("planned run: Planned=%v InjRank=%d, want true/1",
			planned.Sum.Planned, planned.Sum.InjRank)
	}

	// Fig. 5 must count only planned, fired injections.
	res := &CampaignResult{
		App:         "x",
		Golden:      classify.Golden{Cycles: 100},
		GoldenSites: []uint64{10, 10},
		Experiments: []ExperimentSummary{
			{ID: 0}, // unplanned
			{ID: 1, Planned: true, Fired: true, InjCycle: 50},             // counts
			{ID: 2, Planned: true, Fired: false},                          // never fired
			{ID: 3, Planned: true, Fired: true, InjCycle: 75, InjRank: 1}, // counts
		},
	}
	fig5 := FormatFig5(res, 10)
	if want := "2 injections"; !strings.Contains(fig5, want) {
		t.Errorf("Fig. 5 header does not report %q:\n%s", want, fig5)
	}
}

// TestCampaignContainsExperimentPanic injects an infrastructure panic into
// every experiment (via the coreRun seam) and requires the campaign to
// classify them as Crashed with diagnostics instead of dying.
func TestCampaignContainsExperimentPanic(t *testing.T) {
	orig := coreRun
	defer func() { coreRun = orig }()
	coreRun = func(prog *ir.Program, cfg core.RunConfig, snap *core.CampaignSnapshot) core.RunOutcome {
		if len(cfg.Plan.Faults) > 0 {
			panic("synthetic interpreter bug")
		}
		return orig(prog, cfg, snap)
	}
	app := apps.NewHydro()
	res, err := RunCampaign(CampaignConfig{
		App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 3}, Execution: Execution{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Counts[classify.Crashed] != 6 {
		t.Fatalf("tally = %v, want 6 crashed", res.Tally.Counts)
	}
	for _, e := range res.Experiments {
		if e.Outcome != classify.Crashed {
			t.Errorf("experiment %d outcome %v, want Crashed", e.ID, e.Outcome)
		}
		if e.Diag == "" {
			t.Errorf("experiment %d lost its panic diagnostic", e.ID)
		}
	}
}
