package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	faultprop "repro"
	"repro/internal/harness"
)

// The four workloads. README.md says why each one exists.
const (
	wlLulesh  = "lulesh-fork"
	wlStudy   = "study5-journal"
	wlAMG     = "amg-tail"
	wlService = "service-jobs"
)

var workloads = []string{wlLulesh, wlStudy, wlAMG, wlService}

// campaignDefaults are the execution settings every campaign the
// benchmark runs shares: cmd/campaign's trace sub-sampling and the
// production snapshot-fork path.
const (
	sampleEvery = 256
	snapshots   = 64
)

// amgSeed pins amg-tail: at this campaign seed experiment 1458 of AMG2013
// at test scale (rank 3, site 5138, bit 1) leaves all four ranks alive
// and blocked in MPI at mismatched call sites, so only the 60 s wall-clock
// timeout of the mpi layer ends it.
const (
	amgSeed    = 2015
	amgStallID = 1458
)

// scale holds every size the workloads use, so that tests drive the same
// code at miniature scale.
type scale struct {
	// luleshRuns is lulesh-fork's Runs per repetition.
	luleshRuns int
	// studyRuns is study5-journal's Runs per application.
	studyRuns map[string]int
	// amgRuns is amg-tail's Runs; it covers amgStallID at full scale.
	amgRuns int
	// jobRuns is the smallest Runs of a service-jobs job; job i of a
	// round adds i, which makes the cache keys distinct.
	jobRuns int
	// missJobs is the number of cache-miss jobs per round (the same specs
	// again are the cache hits); shardedJobs the number of two-shard jobs.
	missJobs, shardedJobs int
	// oracleRuns sizes the fork-versus-re-execution oracle.
	oracleRuns int
	// resumeSamples is how often a workload replays its journals (for
	// service-jobs: serves its results again from the archive). The
	// phases are short, so each runs for two to three seconds.
	resumeSamples map[string]int
	// setupSamples is the number of cold set-ups per run: fewer where one
	// takes 0.2 s.
	setupSamples map[string]int
	// ladderRuns is the campaign size of the per-layer rungs;
	// adaptiveRuns the budget of the adaptive planner's rung.
	ladderRuns, adaptiveRuns int
	// deadlockTimeout is the mpi timeout of the deadlock rung.
	deadlockTimeout time.Duration
	// nominal is the duration of one repetition on the machine the sizes
	// were chosen on; --seconds divided by it is the repetition count, so
	// that the same arguments always run the same work.
	nominal map[string]float64
}

// fullScale is the issue's sizes times one common factor — 0.2, and 0.08
// for study5-journal, which runs its campaigns on one worker (see
// campaignConfigs) — so that four repetitions of lulesh-fork and five of
// study5-journal fit into BENCHMARK.json's run_seconds. amg-tail keeps its Runs: the pinned
// stall is experiment 1458, and its wall is the mpi timeout whatever its
// size.
var fullScale = scale{
	luleshRuns: 800,
	studyRuns: map[string]int{
		"LULESH": 960, "LAMMPS": 800, "miniFE": 1200, "AMG2013": 112, "MCB": 1120,
	},
	amgRuns:         1500,
	jobRuns:         80,
	missJobs:        40,
	shardedJobs:     12,
	oracleRuns:      200,
	resumeSamples:   map[string]int{wlLulesh: 80, wlStudy: 11, wlAMG: 60, wlService: 11},
	setupSamples:    map[string]int{wlLulesh: 11, wlStudy: 7, wlAMG: 11, wlService: 11},
	ladderRuns:      240,
	adaptiveRuns:    3000,
	deadlockTimeout: 2 * time.Second,
	nominal:         map[string]float64{wlLulesh: 4, wlStudy: 3.2, wlAMG: 62, wlService: 16},
}

// repetitions is how many repetitions of a workload fit into seconds.
func (sc scale) repetitions(workload string, seconds float64) int {
	return max(1, int(seconds/sc.nominal[workload]))
}

// campaignConfigs returns the campaigns one repetition of a campaign
// workload runs through the facade, journal paths not yet set.
func campaignConfigs(workload string, seed uint64, sc scale) []faultprop.CampaignConfig {
	mk := func(name string, test bool, runs, workers int, seed uint64) faultprop.CampaignConfig {
		app := faultprop.AppByName(name)
		p := app.DefaultParams()
		if test {
			p = app.TestParams()
		}
		return faultprop.CampaignConfig{
			App:       app,
			Params:    p,
			Sampling:  faultprop.Sampling{Runs: runs, Seed: seed},
			Execution: faultprop.Execution{Workers: workers, Snapshots: snapshots, SampleEvery: sampleEvery},
		}
	}
	switch workload {
	case wlLulesh:
		return []faultprop.CampaignConfig{mk("LULESH", false, sc.luleshRuns, 1, seed)}
	case wlAMG:
		return []faultprop.CampaignConfig{mk("AMG2013", true, sc.amgRuns, 1, amgSeed)}
	case wlStudy:
		// One worker, not the issue's one per CPU: the host hands the
		// benchmark's two CPUs out unevenly for seconds at a time, and a
		// pool that saturates both repeats three to four times worse from
		// run to run than one worker and its four rank goroutines do
		// (README.md, "How the bounds were set"). Pool scaling is the
		// ladder's harness.scaling_efficiency.
		var out []faultprop.CampaignConfig
		for _, app := range faultprop.Apps() {
			cfg := mk(app.Name(), true, sc.studyRuns[app.Name()], 1, seed)
			cfg.Sites = true
			cfg.Strata = 4
			out = append(out, cfg)
		}
		return out
	}
	return nil
}

// phaseSink receives the program's own tracing hooks in the traced pass.
type phaseSink struct {
	timings *harness.CampaignTimings
	mu      sync.Mutex
	totals  []float64 // whole-experiment wall, µs
	forked  int
	frac    float64 // sum of RestoreFrac over forked experiments
}

func newPhaseSink() *phaseSink { return &phaseSink{timings: harness.NewCampaignTimings()} }

func (p *phaseSink) observe(tr harness.PhaseTrace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals = append(p.totals, float64(tr.Total)/float64(time.Microsecond))
	if tr.Forked {
		p.forked++
		p.frac += tr.RestoreFrac
	}
}

// report adds the harness metrics the hooks give: the per-phase budget
// and the whole-experiment latency.
func (p *phaseSink) report(r *report) {
	t := p.timings
	sums := map[string]float64{
		"inject": t.Inject.Sum(), "restore": t.Restore.Sum(),
		"execute": t.Execute.Sum(), "classify": t.Classify.Sum(),
	}
	var total float64
	for _, s := range sums {
		total += s
	}
	for _, ph := range []string{"inject", "restore", "execute", "classify"} {
		r.add("harness.phase_share."+ph, "ratio", sums[ph]/total)
	}
	r.add("harness.exp_total_p50_us", "us", median(p.totals))
	r.add("harness.exp_total_p95_us", "us", quantile(p.totals, 0.95))
	r.add("harness.fork_rate", "ratio", float64(p.forked)/float64(len(p.totals)))
	frac := 0.0
	if p.forked > 0 {
		frac = p.frac / float64(p.forked)
	}
	r.add("harness.restore_frac_mean", "ratio", frac)
}

// campaignRun is what one call of the facade gave.
type campaignRun struct {
	wall  time.Duration
	setup time.Duration // call to first OnExperiment
	comps []completion
	// panics counts experiments whose infrastructure failed (a contained
	// panic leaves a Diag).
	panics int
	result []byte // json.Marshal of the CampaignResult
	err    error
}

// runCampaign runs one campaign through the root facade. With a sink the
// program's tracing hooks are on; without, they are nil.
func runCampaign(ctx context.Context, cfg faultprop.CampaignConfig, sink *phaseSink) campaignRun {
	var run campaignRun
	start := time.Now()
	cfg.OnExperiment = func(sum harness.ExperimentSummary, resumed bool) {
		at := time.Since(start)
		if run.setup == 0 {
			run.setup = at
		}
		if resumed {
			return
		}
		run.comps = append(run.comps, completion{id: sum.ID, at: at})
		if sum.Diag != "" {
			run.panics++
		}
	}
	if sink != nil {
		cfg.Timings = sink.timings
		cfg.OnPhase = sink.observe
	}
	res, err := faultprop.RunCampaignContext(ctx, cfg)
	run.wall = time.Since(start)
	if err != nil {
		run.err = err
		return run
	}
	run.result, run.err = json.Marshal(res)
	return run
}

// repetition is one repetition of a campaign workload: its campaigns in
// order, each journaled.
type repetition struct {
	runs     []campaignRun
	journals []string
	wall     time.Duration
	executed int
	failed   int
	stalled  []string // "<app>#<id>"
	digest   string
	err      error
}

// walls returns the wall of each campaign, in seconds.
func (rp repetition) walls() []float64 {
	out := make([]float64, len(rp.runs))
	for i, run := range rp.runs {
		out[i] = run.wall.Seconds()
	}
	return out
}

// breakdown renders each campaign's wall and set-up, for the reader.
func (rp repetition) breakdown(cfgs []faultprop.CampaignConfig) string {
	var parts []string
	for i, run := range rp.runs {
		parts = append(parts, fmt.Sprintf("%s %.3fs (set-up %.3fs)", cfgs[i].App.Name(), run.wall.Seconds(), run.setup.Seconds()))
	}
	return strings.Join(parts, ", ")
}

// workloadDeadline bounds one repetition. RunCampaignContext stops
// handing out experiments when it expires but waits for those in flight,
// which a stalled one holds for up to 60 s; the benchmark does not wait
// for it, so a runaway becomes failed operations, not a hung benchmark.
const workloadDeadline = 150 * time.Second

func runRepetition(cfgs []faultprop.CampaignConfig, dir string, sink *phaseSink, tr *tracer, parent, rep int) repetition {
	ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
	defer cancel()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return repetition{err: err}
	}
	out := repetition{}
	hash := sha256.New()
	start := time.Now()
	for _, cfg := range cfgs {
		cfg.Checkpoint = filepath.Join(dir, cfg.App.Name()+".jsonl")
		out.journals = append(out.journals, cfg.Checkpoint)
		sp := tr.begin("campaign."+cfg.App.Name(), parent, rep)
		done := make(chan campaignRun, 1)
		go func() { done <- runCampaign(ctx, cfg, sink) }()
		var run campaignRun
		select {
		case run = <-done:
		case <-ctx.Done():
			run = campaignRun{err: fmt.Errorf("%s: abandoned at the %v deadline", cfg.App.Name(), workloadDeadline)}
		}
		tr.end(sp)
		tr.within(sp, "setup", 0, run.setup)
		tr.within(sp, "experiments", run.setup, run.wall)
		out.runs = append(out.runs, run)
		out.executed += cfg.Runs
		if run.err != nil {
			out.failed += cfg.Runs
			out.err = errors.Join(out.err, run.err)
			continue
		}
		out.failed += run.panics
		for _, id := range stalledIDs(run.comps, cfg.Workers, run.setup) {
			out.stalled = append(out.stalled, fmt.Sprintf("%s#%d", cfg.App.Name(), id))
		}
		hash.Write(run.result)
	}
	out.wall = time.Since(start)
	out.digest = fmt.Sprintf("%x", hash.Sum(nil))
	return out
}

// resumeOnce replays complete journals into finalized results: the same
// campaigns with Resume set, of which no experiment executes. It returns
// each campaign's wall in seconds and checks the bytes against the
// executed results.
func resumeOnce(cfgs []faultprop.CampaignConfig, from repetition, r *report, tr *tracer, parent int) ([]float64, error) {
	var walls []float64
	for i, cfg := range cfgs {
		cfg.Checkpoint = from.journals[i]
		cfg.Resume = true
		sp := tr.begin("campaign."+cfg.App.Name(), parent, 0)
		run := runCampaign(context.Background(), cfg, nil)
		tr.end(sp)
		if run.err != nil {
			return nil, fmt.Errorf("resume %s: %w", cfg.App.Name(), run.err)
		}
		walls = append(walls, run.wall.Seconds())
		if len(run.comps) != 0 {
			r.mismatch(cfg.Runs, "resume of %s executed %d experiments over a complete journal", cfg.App.Name(), len(run.comps))
		}
		r.compare(cfg.Runs, "resumed and executed "+cfg.App.Name(), from.runs[i].result, run.result)
	}
	return walls, nil
}

// coldCampaignSetup measures a campaign workload's set-up in a process
// that has run nothing yet: the wall from the call into the facade to the
// first OnExperiment callback (build, FPM pass, golden run, quiesce
// profile, snapshot capture, first experiment), summed over the
// workload's campaigns. StopAfter ends each campaign right after.
func coldCampaignSetup(cfgs []faultprop.CampaignConfig, dir string) (float64, error) {
	var total time.Duration
	for _, cfg := range cfgs {
		cfg.Checkpoint = filepath.Join(dir, cfg.App.Name()+".jsonl")
		cfg.StopAfter = 1
		run := runCampaign(context.Background(), cfg, nil)
		if run.err != nil && !errors.Is(run.err, faultprop.ErrInterrupted) {
			return 0, run.err
		}
		if run.setup == 0 {
			return 0, fmt.Errorf("%s: no experiment completed", cfg.App.Name())
		}
		total += run.setup
	}
	return total.Seconds(), nil
}

// measureCampaigns is the end-to-end pass of a campaign workload, the
// program's tracing hooks nil: cold set-ups, the repetitions, the resume
// phase, then the oracles. runs_per_s and resume_s are quiet-machine
// estimates (quietSum): every campaign's fastest repetition, every
// journal's fastest replay.
func (b *bench) measureCampaigns() error {
	r := b.report
	cfgs := campaignConfigs(b.workload, b.campaignSeed, b.sc)
	if err := b.measureSetup(); err != nil {
		return err
	}
	var rates []float64
	var walls [][]float64
	var last repetition
	for rep := 0; rep < b.sc.repetitions(b.workload, b.seconds); rep++ {
		cur := runRepetition(cfgs, filepath.Join(b.tmp, fmt.Sprintf("rep%d", rep)), nil, nil, -1, rep)
		r.attempt(cur.executed, cur.failed)
		if cur.err != nil {
			return cur.err
		}
		rates = append(rates, float64(cur.executed)/cur.wall.Seconds())
		walls = append(walls, cur.walls())
		r.note("repetition %d: %s", rep, cur.breakdown(cfgs))
		for i := range last.runs {
			r.compare(cfgs[i].Runs, "repetitions of "+cfgs[i].App.Name(), last.runs[i].result, cur.runs[i].result)
		}
		last = cur
	}
	r.addAs("runs_per_s", "experiments/s", float64(last.executed)/quietSum(walls), rates...)
	r.note("runs_per_s_median %.6g experiments/s", median(rates))
	b.reportStalls(last)
	r.note("result_digest %s", last.digest)
	// Before the resume phase: how high eighty replays' garbage piles up
	// depends on when the collector happens to run.
	b.peakRSS()

	var resumes [][]float64
	var totals []float64
	for i := 0; i < b.sc.resumeSamples[b.workload]; i++ {
		w, err := resumeOnce(cfgs, last, r, nil, -1)
		if err != nil {
			return err
		}
		resumes = append(resumes, w)
		totals = append(totals, sum(w))
	}
	r.addAs("resume_s", "s", quietSum(resumes), totals...)
	r.note("resume_s_median %.6g s", median(totals))

	if b.workload == wlLulesh {
		return b.forkOracle(cfgs[0])
	}
	return nil
}

// traceCampaigns is the traced pass of a campaign workload: after a
// warm-up, one repetition with the program's tracing hooks nil and one
// with them set give what the hooks cost; the traced one gives the
// per-phase budget.
// amg-tail compares the two on the stall-free experiments below the
// pinned one (two 60 s timers would say nothing about the hooks) and then
// runs the pinned campaign traced.
func (b *bench) traceCampaigns() error {
	r := b.report
	cfgs := campaignConfigs(b.workload, b.campaignSeed, b.sc)
	pair := cfgs
	pinned := b.workload == wlAMG && b.sc.amgRuns > amgStallID
	if pinned {
		prefix := cfgs[0]
		prefix.Runs = amgStallID
		pair = []faultprop.CampaignConfig{prefix}
	}
	wl := b.tracer.begin(b.workload, -1, 0)
	defer b.tracer.end(wl)
	run := func(rep int, cfgs []faultprop.CampaignConfig, sink *phaseSink) (repetition, error) {
		sp := b.tracer.begin("repetition", wl, rep)
		defer b.tracer.end(sp)
		ex := b.tracer.begin("execute", sp, rep)
		defer b.tracer.end(ex)
		cur := runRepetition(cfgs, filepath.Join(b.tmp, fmt.Sprintf("rep%d", rep)), sink, b.tracer, ex, rep)
		r.attempt(cur.executed, cur.failed)
		return cur, cur.err
	}
	// The first repetition in a process pays for cold caches and a small
	// heap; it only warms up.
	if _, err := run(0, pair, nil); err != nil {
		return err
	}
	plain, err := run(1, pair, nil)
	if err != nil {
		return err
	}
	sink := newPhaseSink()
	traced, err := run(2, pair, sink)
	if err != nil {
		return err
	}
	r.add("trace_overhead_pct", "%", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1))
	if pinned {
		sink = newPhaseSink()
		if traced, err = run(3, cfgs, sink); err != nil {
			return err
		}
	}
	sink.report(r)
	b.reportStalls(traced)
	r.note("result_digest %s", traced.digest)

	rs := b.tracer.begin("resume", wl, 0)
	_, err = resumeOnce(cfgs, traced, r, b.tracer, rs)
	b.tracer.end(rs)
	return err
}

// reportStalls prints a repetition's stalled experiments and marks a run
// whose count is not the workload's own: none, except the one amg-tail
// pins.
func (b *bench) reportStalls(rep repetition) {
	r := b.report
	r.add("stalled_experiments", "count", float64(len(rep.stalled)))
	if len(rep.stalled) > 0 {
		r.note("stalled %v", rep.stalled)
	}
	want := 0
	if b.workload == wlAMG && b.sc.amgRuns > amgStallID {
		want = 1
	}
	switch {
	case len(rep.stalled) > want:
		r.note("stall_contaminated: %d stalled experiments, %d expected; runs_per_s includes their 60 s timeouts (README.md says how to re-derive stall-free windows)", len(rep.stalled), want)
	case len(rep.stalled) < want:
		r.note("deadlock_reproduced=false: experiment %d of AMG2013 at seed %d no longer stalls; if deadlocks are now detected this is the gain amg-tail exists to show, otherwise re-pin it (README.md, stall survey)", amgStallID, amgSeed)
	}
}

// forkOracle re-runs the first IDs of lulesh-fork without snapshots: the
// re-execution path must marshal byte-identically to the fork path.
func (b *bench) forkOracle(cfg faultprop.CampaignConfig) error {
	cfg.Runs = b.sc.oracleRuns
	fork := runCampaign(context.Background(), cfg, nil)
	cfg.Snapshots = 0
	plain := runCampaign(context.Background(), cfg, nil)
	if err := errors.Join(fork.err, plain.err); err != nil {
		return fmt.Errorf("fork oracle: %w", err)
	}
	b.report.attempt(2*cfg.Runs, fork.panics+plain.panics)
	b.report.compare(2*cfg.Runs, fmt.Sprintf("the first %d IDs with Snapshots=%d and Snapshots=0", cfg.Runs, snapshots), fork.result, plain.result)
	return nil
}
