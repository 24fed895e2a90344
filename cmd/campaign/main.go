// Command campaign runs the paper's full fault-injection study: for each
// proxy application it executes a statistical injection campaign and prints
// every figure and table of the evaluation (Figs. 5-8, Tables 1-2, and the
// §4.3 CO breakdown).
//
// Usage:
//
//	campaign [-runs N] [-seed S] [-apps LULESH,miniFE] [-scale test|default]
//	         [-multifault LAMBDA] [-target-ci W] [-strata P] [-workers N]
//	         [-sites] [-protect-top PCT]
//	         [-checkpoint PATH] [-resume] [-progress INTERVAL]
//	         [-remote ADDR] [-priority N] [-shards N]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The paper uses 5,000 runs per application on 1,024 cores; the default
// here is sized for a laptop. Increase -runs for tighter statistics — or
// pass -target-ci to let the adaptive planner stop early: experiments are
// stratified by instruction class × golden-execution phase, spent in
// deterministic rounds on the strata whose outcome rates are still
// uncertain, and the campaign stops when every stratum's rates are pinned
// within ± the target 95% CI half-width (spending at most -runs). The
// result additionally carries a per-stratum vulnerability table, and the
// executed subset is byte-identical to the same experiments of a fixed
// -runs campaign with the same seed.
//
// Long campaigns can be journaled with -checkpoint and, after a crash or a
// kill, restarted with -resume: completed experiments replay from the
// journal and the final results are identical to an uninterrupted run.
// SIGINT/SIGTERM are trapped: in-flight experiments finish, the journal is
// flushed, and the partial tallies print before exit, so an interrupted
// campaign is always resumable.
// -progress prints a live status line (runs/sec, ETA, per-outcome counts,
// worker utilization) to stderr on the given interval.
//
// With -remote ADDR the campaigns run on a faultpropd daemon instead of
// locally: each app is submitted as a job (at -priority), its event stream
// is followed, and the rendered output is identical to a local run with the
// same seed — the daemon journals every job, so worker counts, scheduling,
// and daemon restarts cannot change the results. -workers, -checkpoint and
// -resume are daemon-side concerns and are ignored with a note.
//
// With -sites each experiment additionally records its propagation
// pattern (first-contamination site, CML trajectory shape, cleanse cause)
// and the study gains a per-site vulnerability ranking: for every static
// injection site, P(WO or Crash | flip at site) with a 95% Wilson
// interval, most vulnerable first. -protect-top PCT runs the selective-
// protection evaluation on top of that: a baseline campaign ranks the
// sites, the top PCT% are re-instrumented with operand duplication, and
// an identically-seeded second campaign measures the achieved WO+Crash
// reduction against the instruction overhead. -protect-top runs locally
// only.
//
// With -shards N (N > 1) each campaign is split into N experiment-ID
// shards and merged back into one result — byte-identical to the
// unsharded run, because the position-addressable RNG makes every shard
// independently computable and the merge recomputes the fits. Locally,
// -workers picks how many worker processes are spawned (default 2): the
// command re-executes itself as short-lived faultpropd-style workers and
// coordinates them over loopback HTTP. With -remote, the shard fan-out
// happens on the daemon, across its registered peer workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/recovery"
	"repro/internal/service"
)

func main() {
	runs := flag.Int("runs", 200, "injection experiments per application (the budget ceiling with -target-ci)")
	seed := flag.Uint64("seed", 2015, "campaign master seed")
	appsFlag := flag.String("apps", "", "comma-separated app names (default: all)")
	scale := flag.String("scale", "default", "workload scale: test or default")
	multi := flag.Float64("multifault", 0, "Poisson lambda for multi-fault mode (0: single fault)")
	targetCI := flag.Float64("target-ci", 0, "adaptive stopping: stop each stratum once every outcome rate is within ± this 95% CI half-width, spending at most -runs experiments (0: fixed-size campaign)")
	strata := flag.Int("strata", 0, "golden-execution phases per instruction class for stratified sampling (0: default; implies stratified reporting even without -target-ci)")
	sample := flag.Uint64("sample", 256, "CML trace sampling interval in cycles")
	sites := flag.Bool("sites", false, "record per-site propagation patterns and rank every static injection site by P(WO or Crash | flip)")
	protectTop := flag.Float64("protect-top", 0, "selective protection: rank sites with a baseline campaign (implies -sites), duplicate the operands of the top PCT% most-vulnerable sites, and re-run to report coverage vs overhead; local runs only (0: off)")
	jsonOut := flag.String("json", "", "also save results to this file (.json or .json.gz)")
	workers := flag.Int("workers", 0, "concurrent experiments (0: GOMAXPROCS)")
	snapshots := flag.Int("snapshots", 64, "snapshot-fork fast path, on when positive: experiments fork from the latest golden-state snapshot, captured at every quiesce cut, before their faults and end at a later one where every rank is back in the golden state (0: execute every experiment from step 0 to its end; results are byte-identical either way)")
	checkpoint := flag.String("checkpoint", "", "journal completed experiments to this JSONL path (per-app suffix added when several apps run)")
	resume := flag.Bool("resume", false, "replay the -checkpoint journal, skipping completed experiments")
	progressEvery := flag.Duration("progress", 0, "print a status line to stderr on this interval (0: off)")
	maxSummaries := flag.Int("max-summaries", 0, "retain at most this many per-experiment summaries (0: all)")
	remote := flag.String("remote", "", "submit to a faultpropd daemon at this address instead of running locally")
	priority := flag.Int("priority", 0, "job priority for -remote submissions (higher runs first)")
	shards := flag.Int("shards", 0, "split each campaign into this many mergeable shards (locally: across -workers processes; with -remote: across the daemon's peer workers)")
	serveWorker := flag.String("serve-worker", "", "internal: serve as a local shard worker with this data directory")
	stopAfter := flag.Int("stop-after", 0, "internal: halt the local campaign after this many completed experiments, as a deterministic stand-in for a mid-run kill (0: off)")
	logLevel := flag.String("log-level", "", "structured coordinator logs to stderr at this level in -shards mode (debug, info, warn, error; empty: off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-campaign heap profile to this file")
	flag.Usage = groupedUsage
	flag.Parse()

	if *serveWorker != "" {
		serveWorkerMain(*serveWorker)
		return
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}
	if *targetCI < 0 || *targetCI >= 1 {
		fmt.Fprintln(os.Stderr, "-target-ci must be in [0, 1)")
		os.Exit(2)
	}
	if *strata < 0 {
		fmt.Fprintln(os.Stderr, "-strata must be >= 0")
		os.Exit(2)
	}
	if *protectTop < 0 || *protectTop > 100 {
		fmt.Fprintln(os.Stderr, "-protect-top must be a percentage in [0, 100]")
		os.Exit(2)
	}
	if *protectTop > 0 && (*remote != "" || *shards > 1) {
		fmt.Fprintln(os.Stderr, "-protect-top runs its paired baseline/protected campaigns locally; drop -remote/-shards")
		os.Exit(2)
	}

	selected := apps.All()
	if *appsFlag != "" {
		selected = nil
		for _, name := range strings.Split(*appsFlag, ",") {
			a := apps.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "unknown app %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	// A SIGINT/SIGTERM cancels the campaign context: in-flight experiments
	// finish, the checkpoint journal is flushed, and partial tallies print
	// before exit instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	o := options{
		runs: *runs, seed: *seed, scale: *scale, multi: *multi,
		sample: *sample, maxSummaries: *maxSummaries, workers: *workers,
		snapshots: *snapshots, targetCI: *targetCI, strata: *strata, sites: *sites,
		checkpoint: *checkpoint, resume: *resume, stopAfter: *stopAfter,
		progressEvery: *progressEvery, priority: *priority, shards: *shards,
	}
	var results []*harness.CampaignResult
	var err error
	switch {
	case *remote != "":
		if o.workers != 0 || o.checkpoint != "" || o.resume {
			fmt.Fprintln(os.Stderr, "note: -workers/-checkpoint/-resume are managed by the daemon and ignored with -remote")
		}
		results, err = runRemote(ctx, *remote, " via "+*remote, selected, o)
		if errors.Is(err, harness.ErrInterrupted) {
			// Detached, not cancelled: the daemon owns the job.
			err = fmt.Errorf("%w; detached, the job keeps running on %s", err, *remote)
		}
	case *shards > 1:
		results, err = runSharded(ctx, selected, o, service.Config{
			ProgressEvery: 100 * time.Millisecond,
			Heartbeat:     500 * time.Millisecond,
			Log:           coordLogger(*logLevel),
		})
	case *protectTop > 0:
		results, err = runProtectTop(ctx, selected, o, *protectTop)
	default:
		results, err = runLocal(ctx, selected, o)
	}

	if *cpuProfile != "" {
		// Stop explicitly so the profile covers the campaigns, not the
		// rendering below (the deferred stop then no-ops).
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitCode(err))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if err := render(results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut != "" {
		if err := harness.SaveResults(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "save: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("results saved to %s\n", *jsonOut)
	}
}

// usageError marks a run-path error that the command line caused.
type usageError struct{ error }

// exitCode maps a run path's error to the exit status: 130 for an
// interrupted campaign, 2 for a usage error (a typed config violation — a
// bad flag combination, or -resume pointing -target-ci at a journal written
// by a non-adaptive campaign — is one, not a crash), 1 otherwise.
func exitCode(err error) int {
	var fe *harness.FieldError
	var ue usageError
	switch {
	case errors.Is(err, harness.ErrInterrupted):
		return 130
	case errors.As(err, &fe), errors.As(err, &ue):
		return 2
	}
	return 1
}

// options is the command line, filled from the flags once. campaignConfig
// is what a local run executes and jobSpec what a daemon is sent, both read
// from the same fields.
type options struct {
	runs          int
	seed          uint64
	scale         string
	multi         float64
	sample        uint64
	maxSummaries  int
	workers       int
	snapshots     int
	targetCI      float64
	strata        int
	sites         bool
	protect       []int
	checkpoint    string
	resume        bool
	stopAfter     int
	progressEvery time.Duration
	priority      int
	shards        int
}

// campaignConfig is the configuration runLocal executes for app, without
// the per-invocation journal and progress wiring.
func (o options) campaignConfig(app apps.App) harness.CampaignConfig {
	p := app.DefaultParams()
	if o.scale == "test" {
		p = app.TestParams()
	}
	return harness.CampaignConfig{
		App:    app,
		Params: p,
		Sampling: harness.Sampling{
			Runs:             o.runs,
			Seed:             o.seed,
			MultiFaultLambda: o.multi,
			TargetCI:         o.targetCI,
			Strata:           o.strata,
			Sites:            o.sites,
		},
		Protect: o.protect,
		Execution: harness.Execution{
			SampleEvery: o.sample,
			Workers:     o.workers,
			Snapshots:   o.snapshots,
		},
		Retention: harness.Retention{MaxSummaries: o.maxSummaries},
		StopAfter: o.stopAfter,
	}
}

// jobSpec is the /v1 submission that runs app's campaign on a daemon. The
// sampling object is nil when no sampling-policy flag is set, which keeps
// the wire spec byte-identical to pre-adaptive submissions.
func (o options) jobSpec(app apps.App) service.JobSpec {
	spec := service.JobSpec{
		App:              app.Name(),
		Scale:            o.scale,
		Runs:             o.runs,
		Seed:             o.seed,
		MultiFaultLambda: o.multi,
		SampleEvery:      o.sample,
		MaxSummaries:     o.maxSummaries,
		Snapshots:        o.snapshots,
		Priority:         o.priority,
		Shards:           o.shards,
		Label:            "cmd/campaign",
	}
	if o.targetCI != 0 || o.strata != 0 || o.sites {
		spec.Sampling = &service.SamplingSpec{TargetCI: o.targetCI, Strata: o.strata, Sites: o.sites}
	}
	return spec
}

// printHeader prints the "# APP: N runs in …" line that opens an app's
// results. N is what ran — for an adaptive campaign what it spent, not its
// budget; how says where (" via ADDR", " across …", "" for a local run);
// snap is the campaign's last progress snapshot, when it has one.
func (o options) printHeader(res *harness.CampaignResult, elapsed time.Duration, how string, snap *harness.Snapshot) {
	ran := o.runs
	if o.targetCI > 0 {
		ran = res.Tally.Total
	}
	fmt.Printf("# %s: %d runs in %v%s (golden cycles %d, %d ranks",
		res.App, ran, elapsed.Round(time.Millisecond), how, res.Golden.Cycles, res.Params.Ranks)
	if snap != nil {
		fmt.Printf(", %.1f runs/s, %d ended at a golden-equal cut", snap.RunsPerSec, snap.Exited)
		if how == "" {
			// Ghosts are local telemetry: the wire does not carry them.
			fmt.Printf(", %d ranks ended replaying golden traffic", snap.Ghosts)
		}
	}
	if o.targetCI > 0 {
		fmt.Printf(", adaptive: spent %d of %d budget at ±%g", ran, o.runs, o.targetCI)
	}
	if snap != nil && snap.Resumed > 0 {
		fmt.Printf(", %d resumed", snap.Resumed)
	}
	fmt.Println(")")
}

func runLocal(ctx context.Context, selected []apps.App, o options) ([]*harness.CampaignResult, error) {
	var results []*harness.CampaignResult
	for _, app := range selected {
		start := time.Now()
		prog := &harness.Progress{}
		stopTicker := prog.Ticker(os.Stderr, o.progressEvery)
		ckpt := checkpointPath(o.checkpoint, app.Name(), len(selected))
		cfg := o.campaignConfig(app)
		cfg.Persistence = harness.Persistence{Checkpoint: ckpt, Resume: o.resume}
		cfg.Progress = prog
		// A journal of a shorter campaign of the family resumes this one:
		// it runs only the experiments the journal lacks.
		shorter := 0
		if o.resume {
			if n := harness.JournalRuns(ckpt); n < cfg.Runs {
				shorter = n
			}
		}
		res, err := harness.RunCampaignContext(ctx, cfg)
		stopTicker()
		snap := prog.Snapshot()
		if errors.Is(err, harness.ErrInterrupted) {
			hint := ""
			if ckpt != "" {
				hint = fmt.Sprintf("\njournal flushed to %s; rerun with -resume to continue", ckpt)
			}
			return results, fmt.Errorf("campaign %s interrupted: %w\npartial tally: %s%s", app.Name(), err, snap, hint)
		}
		if err != nil {
			return results, fmt.Errorf("campaign %s: %w", app.Name(), err)
		}
		o.printHeader(res, time.Since(start), "", &snap)
		if shorter > 0 {
			fmt.Printf("# %s: resumed %d records from a %d-run journal of the same family\n", res.App, snap.Resumed, shorter)
		}
		results = append(results, res)
	}
	return results, nil
}

// runProtectTop drives the selective-protection evaluation: per app, a
// baseline campaign with per-site analytics ranks every static injection
// site, the top pct% are protected by operand duplication, and an
// identically-configured second campaign measures the protected WO+Crash
// rate against the instruction overhead. Both campaigns share the seed,
// and protection never changes injection plans, so the two runs flip the
// same bits at the same dynamic sites — the rate delta is the protection
// effect. The baseline results are returned for the standard study
// rendering; the coverage-vs-overhead tables print here.
func runProtectTop(ctx context.Context, selected []apps.App, o options, pct float64) ([]*harness.CampaignResult, error) {
	o.sites = true
	var results []*harness.CampaignResult
	for _, app := range selected {
		one := []apps.App{app}
		base, err := runLocal(ctx, one, o)
		if err != nil {
			return results, err
		}
		// The baseline campaign's pack already holds the instrumented
		// program; its static site table is the coverage denominator.
		total, err := harness.StaticSiteCount(o.campaignConfig(app))
		if err != nil {
			return results, fmt.Errorf("protect-top %s: %w", app.Name(), err)
		}
		po := o
		po.protect = harness.ProtectTop(base[0].Sites, pct, total)
		// The protected campaign has its own fingerprint (the protect set
		// is result-determining); journaling it over the baseline's path
		// would clobber that journal, so it runs unjournaled.
		po.checkpoint, po.resume = "", false
		prot, err := runLocal(ctx, one, po)
		if err != nil {
			return results, err
		}
		fmt.Println()
		fmt.Print(harness.FormatProtection(pct, len(po.protect), total, base[0], prot[0]))
		results = append(results, base[0])
	}
	return results, nil
}

// runRemote submits one job per app to the faultpropd daemon at addr,
// follows each job's event stream, and fetches the final results; how words
// the daemon in the header line, whose counts come from the job's terminal
// status. When ctx ends it stops following and returns an error wrapping
// harness.ErrInterrupted; what becomes of the job is its caller's to decide
// and to say.
func runRemote(ctx context.Context, addr, how string, selected []apps.App, o options) ([]*harness.CampaignResult, error) {
	c, err := service.NewClient(addr)
	if err != nil {
		return nil, usageError{fmt.Errorf("remote: %w", err)}
	}
	var results []*harness.CampaignResult
	for _, app := range selected {
		start := time.Now()
		var lastProgress time.Time
		res, final, err := c.Run(ctx, o.jobSpec(app), func(ev service.Event) error {
			if ev.Kind == service.EventProgress && ev.Progress != nil &&
				o.progressEvery > 0 && time.Since(lastProgress) >= o.progressEvery {
				lastProgress = time.Now()
				fmt.Fprintf(os.Stderr, "%s: %s\n", app.Name(), ev.Progress)
			}
			return nil
		})
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("%w (%v)", harness.ErrInterrupted, ctx.Err())
		}
		if err != nil {
			return results, fmt.Errorf("campaign %s%s: %w", app.Name(), how, err)
		}
		o.printHeader(res, time.Since(start), how, final.Progress)
		results = append(results, res)
	}
	return results, nil
}

// render prints every figure and table of the paper's evaluation: Table 1,
// the study (harness.RenderStudy), and each campaign's recovery-policy
// evaluation.
func render(results []*harness.CampaignResult) error {
	t1, err := harness.FormatTable1()
	if err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	fmt.Printf("\n%s\n%s", t1, harness.RenderStudy(results...))
	for _, r := range results {
		rep := recovery.Evaluate(recovery.Config{
			Model:              r.Model,
			ThresholdCML:       20,
			DetectionLatency:   2e-6,
			CheckpointInterval: 10e-6,
		}, r)
		fmt.Println(rep.Format())
	}
	return nil
}

// flagSections groups the command's flags by the CampaignConfig section
// they fill, so -h reads like the configuration it builds.
var flagSections = []struct {
	title string
	names []string
}{
	{"Workload", []string{"apps", "scale"}},
	{"Sampling (statistical design)", []string{"runs", "seed", "multifault", "target-ci", "strata"}},
	{"Analytics and protection", []string{"sites", "protect-top"}},
	{"Execution (scheduling)", []string{"workers", "snapshots", "sample"}},
	{"Retention", []string{"max-summaries"}},
	{"Persistence (checkpoint journal)", []string{"checkpoint", "resume"}},
	{"Remote and sharding", []string{"remote", "priority", "shards", "log-level"}},
	{"Output and profiling", []string{"json", "progress", "cpuprofile", "memprofile"}},
}

// groupedUsage prints -h grouped by config section instead of the flat
// alphabetical default.
func groupedUsage() {
	w := flag.CommandLine.Output()
	fmt.Fprint(w, "Usage: campaign [flags]\n\nRuns the paper's fault-injection study. Flags are grouped by the\nconfiguration section they fill:\n")
	seen := map[string]bool{"serve-worker": true, "stop-after": true} // internal, not advertised
	for _, sec := range flagSections {
		fmt.Fprintf(w, "\n%s:\n", sec.title)
		for _, name := range sec.names {
			if f := flag.Lookup(name); f != nil {
				seen[name] = true
				printFlag(w, f)
			}
		}
	}
	var rest []*flag.Flag
	flag.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			rest = append(rest, f)
		}
	})
	if len(rest) > 0 {
		fmt.Fprint(w, "\nOther:\n")
		for _, f := range rest {
			printFlag(w, f)
		}
	}
}

func printFlag(w io.Writer, f *flag.Flag) {
	typ, usage := flag.UnquoteUsage(f)
	if typ != "" {
		fmt.Fprintf(w, "  -%s %s\n", f.Name, typ)
	} else {
		fmt.Fprintf(w, "  -%s\n", f.Name)
	}
	fmt.Fprintf(w, "    \t%s", usage)
	if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
		fmt.Fprintf(w, " (default %v)", f.DefValue)
	}
	fmt.Fprintln(w)
}

// checkpointPath derives the journal path for one app. With several apps in
// one invocation each needs its own journal, so the app name is suffixed
// before the extension.
func checkpointPath(base, app string, apps int) string {
	if base == "" || apps == 1 {
		return base
	}
	if i := strings.LastIndex(base, "."); i > 0 {
		return base[:i] + "-" + app + base[i:]
	}
	return base + "-" + app
}
