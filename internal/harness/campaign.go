package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/xrand"
)

// Sampling is the statistical half of a campaign configuration: what to
// inject, how much, and — when adaptive — when the estimates are good
// enough to stop. Every field is result-determining and fingerprinted.
type Sampling struct {
	// Runs is the number of injection experiments (adaptive campaigns
	// treat it as the experiment budget and ID space; see TargetCI).
	Runs int
	// Seed drives all campaign randomness deterministically. Experiment i
	// draws from the position-addressable stream xrand.At(Seed, i), so
	// results do not depend on worker count, completion order, or whether
	// the campaign was resumed from a checkpoint.
	Seed uint64
	// TargetCI, when positive, switches the campaign to adaptive
	// sequential sampling: injection sites are partitioned into strata
	// (instruction class × golden-execution phase), experiments are spent
	// in deterministic rounds steered toward the strata with the widest
	// outcome-rate confidence intervals, and a stratum stops once every
	// outcome rate is known within ±TargetCI (95% Wilson half-width).
	// Runs remains the hard budget and ID space; the planner executes a
	// deterministic subset of it.
	TargetCI float64
	// Strata is the number of golden-execution phases per instruction
	// class in the stratification (0: 4 when TargetCI is set, otherwise
	// stratification is off). Setting Strata without TargetCI annotates
	// every experiment and the final report with per-stratum statistics
	// while still executing the full fixed-Runs campaign.
	Strata int
	// MultiFaultLambda, when positive, switches to the LLFI++ multi-fault
	// mode: each rank receives Poisson(lambda) faults per run.
	MultiFaultLambda float64
	// Sites, when set, enables per-site propagation analytics: every
	// experiment is attributed to the static fim_inj site of its first
	// fault (via the pack's golden dyn→static site map), its CML
	// trajectory shape and cleanse cause are recorded in the summary, and
	// the campaign carries mergeable per-site tallies that finalize into a
	// Wilson-ranked vulnerability table (CampaignResult.Sites).
	// Result-determining (summaries gain a pattern record), so it is
	// fingerprinted.
	Sites bool
}

// Validate checks the sampling policy in isolation.
func (s Sampling) Validate() error {
	switch {
	case s.Runs <= 0:
		return &FieldError{Field: "Runs", Reason: "must be > 0"}
	case s.TargetCI < 0:
		return &FieldError{Field: "TargetCI", Reason: "must be >= 0"}
	case s.TargetCI >= 1:
		return &FieldError{Field: "TargetCI", Reason: "is a rate half-width, must be < 1"}
	case s.Strata < 0:
		return &FieldError{Field: "Strata", Reason: "must be >= 0"}
	case s.MultiFaultLambda < 0:
		return &FieldError{Field: "MultiFaultLambda", Reason: "must be >= 0"}
	}
	return nil
}

// Adaptive reports whether the policy uses sequential stopping.
func (s Sampling) Adaptive() bool { return s.TargetCI > 0 }

// stratified reports whether experiments are assigned to strata at all
// (adaptive campaigns always are; fixed-N campaigns opt in via Strata).
func (s Sampling) stratified() bool { return s.TargetCI > 0 || s.Strata > 0 }

// needsSiteMap reports whether the campaign attributes faults through the
// pack's dyn→static site map: stratified and per-site campaigns do.
func (s Sampling) needsSiteMap() bool { return s.Sites || s.stratified() }

// phases resolves the Strata zero-value default.
func (s Sampling) phases() int {
	if s.Strata > 0 {
		return s.Strata
	}
	if s.TargetCI > 0 {
		return defaultStrataPhases
	}
	return 0
}

// Execution groups the knobs that shape how experiments run, not what they
// compute: parallelism, the snapshot-fork fast path, the hang budget and
// trace sampling. HangFactor and SampleEvery are result-determining (they
// are fingerprinted); Workers and Snapshots only schedule.
type Execution struct {
	// Workers bounds experiment-level parallelism (0: GOMAXPROCS).
	Workers int
	// Snapshots switches the snapshot-fork fast path. 0: every experiment
	// runs from step 0 to its end, the reference path. Any positive value:
	// each experiment forks from the latest golden-state snapshot, captured
	// at every quiesce cut in the pack's golden execution, that precedes its
	// planned faults instead of re-executing the clean prefix, and ends at a
	// later captured cut where every rank is back in the golden state
	// instead of executing the golden tail. Purely a performance strategy —
	// results are byte-identical either way — so it is excluded from the
	// checkpoint fingerprint, and shards of one campaign may mix settings
	// freely.
	Snapshots int
	// HangFactor multiplies the golden cycle count into the hang budget.
	HangFactor float64
	// SampleEvery subsamples CML traces (cycles between samples).
	SampleEvery uint64
}

// Validate checks the execution settings in isolation.
func (e Execution) Validate() error {
	switch {
	case e.HangFactor < 0:
		return &FieldError{Field: "HangFactor", Reason: "must be >= 0"}
	case e.Workers < 0:
		return &FieldError{Field: "Workers", Reason: "must be >= 0"}
	case e.Snapshots < 0:
		return &FieldError{Field: "Snapshots", Reason: "must be >= 0"}
	}
	return nil
}

// Retention bounds what the campaign aggregate keeps. Both caps shape
// the retained result, never the per-experiment outcomes, so they are
// excluded from the fingerprint (but partials with different retention do
// not merge).
type Retention struct {
	// KeepProfiles bounds how many representative CML profiles are kept
	// per outcome class (0: 2, as plotted in the paper's Fig. 7).
	KeepProfiles int
	// MaxSummaries bounds the retained per-experiment summaries (0: keep
	// all). When set, CampaignResult.Experiments holds the MaxSummaries
	// lowest-ID summaries while the tally, structure totals, and model
	// still cover every run.
	MaxSummaries int
}

// Validate checks the retention caps in isolation.
func (r Retention) Validate() error {
	switch {
	case r.KeepProfiles < 0:
		return &FieldError{Field: "KeepProfiles", Reason: "must be >= 0"}
	case r.MaxSummaries < 0:
		return &FieldError{Field: "MaxSummaries", Reason: "must be >= 0"}
	}
	return nil
}

// Persistence groups the checkpoint-journal settings.
type Persistence struct {
	// Checkpoint, when set, journals every completed experiment (and, for
	// adaptive campaigns, every planner decision) to this JSONL path so a
	// killed campaign can be resumed.
	Checkpoint string
	// Resume replays the Checkpoint journal, skipping already-completed
	// experiments. The journal must have been written by a campaign with
	// the same result-determining configuration.
	Resume bool
}

// Validate checks the persistence settings in isolation.
func (p Persistence) Validate() error {
	if p.Resume && p.Checkpoint == "" {
		return &FieldError{Field: "Resume", Reason: "requires a Checkpoint path"}
	}
	return nil
}

// CampaignConfig parameterizes a statistical fault-injection campaign over
// one application (paper §4: 5,000 runs, one fault per run into a randomly
// selected MPI process; reduced counts for tests and benchmarks). The
// knobs are grouped into typed sections — Sampling (what to inject and
// when to stop), Execution (how experiments run), Retention (what the
// aggregate keeps) and Persistence (checkpoint journaling) — embedded
// here, so existing field reads (cfg.Runs, cfg.Workers, …) keep working
// through Go field promotion while constructors name the sections.
type CampaignConfig struct {
	App    apps.App
	Params apps.Params

	Sampling
	Execution
	Retention
	Persistence

	// Protect lists static fim_inj site ordinals to protect: the transform
	// restores each listed site's injected operand from its source register
	// right after the injection point, correcting any flip there at the
	// cost of one application cycle per dynamic execution — the
	// selective-protection scenario evaluated by `campaign -protect-top`.
	// Must be strictly ascending. Result-determining (it changes the
	// program under test), so it is fingerprinted; protection never changes
	// the number or order of injection sites, so a given seed draws
	// identical fault plans with and without it.
	Protect []int

	// Progress, when non-nil, receives live metrics (see Progress).
	Progress *Progress
	// StopAfter, when positive, interrupts the campaign after roughly that
	// many newly executed experiments: RunCampaign journals what finished
	// and returns ErrInterrupted. It simulates a mid-campaign kill for
	// checkpoint testing and gives operators a bounded-work mode.
	StopAfter int
	// OnExperiment, when non-nil, observes every experiment folded into the
	// aggregate — replayed checkpoint records first (resumed=true), then
	// live completions in completion order. It is called from the single
	// aggregation goroutine, so implementations need no locking against
	// each other but must not block for long: the callback is on the
	// campaign's critical path. It does not influence results and is
	// excluded from the checkpoint fingerprint.
	OnExperiment func(sum ExperimentSummary, resumed bool)
	// Trace is an operator- or service-assigned span ID stamped into the
	// checkpoint journal header (and the service's logs and events) so one
	// grep follows a campaign or shard across processes. Purely
	// observational: excluded from the fingerprint, never
	// result-determining.
	Trace string
	// Timings, when non-nil, aggregates per-outcome and per-phase latency
	// histograms over every executed (not resumed) experiment;
	// RunShardContext stamps them into the PartialResult so shard timings
	// merge back at the coordinator. Observed from worker goroutines
	// (CampaignTimings is concurrency-safe). Excluded from the
	// fingerprint.
	Timings *CampaignTimings
	// OnPhase, when non-nil, observes each executed experiment's phase
	// timings as it completes. Unlike OnExperiment it is called directly
	// from worker goroutines, concurrently — implementations must be
	// thread-safe and fast. It does not influence results and is excluded
	// from the fingerprint. When both Timings and OnPhase are nil, phase
	// tracing is disabled and experiments pay only a nil check.
	OnPhase func(PhaseTrace)
	// Gate, when non-nil, is a token bucket shared between concurrent
	// campaigns: every experiment holds one token while it executes, so the
	// total experiment parallelism across all campaigns sharing the channel
	// is bounded by its capacity (fill it with that many empty structs).
	// The per-campaign Workers setting still bounds this campaign alone.
	// Like Workers, the gate shapes scheduling only — results are
	// position-addressed by seed — so it is excluded from the fingerprint.
	Gate chan struct{}

	// reuse carries a worker's recyclable run infrastructure (per-rank VM
	// state, MPI job fabric) into runExperiment. Set per worker goroutine
	// on its private copy of the config; purely an allocation
	// optimization, so it is excluded from the checkpoint fingerprint and
	// never result-determining.
	reuse *core.Reuse
}

// ErrInterrupted reports a campaign stopped before completing every run;
// the checkpoint journal holds the completed experiments.
var ErrInterrupted = errors.New("harness: campaign interrupted")

// FieldError reports one invalid CampaignConfig field. Validate returns
// the first violation; callers can errors.As for the field name.
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("harness: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration without running anything. It is called
// by RunCampaign and RunShardContext, so callers only need it to fail fast
// (e.g. at submission time) before spending a golden run. Section-level
// checks are delegated to each sub-struct's Validate.
func (cfg CampaignConfig) Validate() error {
	if cfg.App == nil {
		return &FieldError{Field: "App", Reason: "must be set"}
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return err
	}
	if err := cfg.Execution.Validate(); err != nil {
		return err
	}
	if err := cfg.Retention.Validate(); err != nil {
		return err
	}
	if err := cfg.Persistence.Validate(); err != nil {
		return err
	}
	if cfg.StopAfter < 0 {
		return &FieldError{Field: "StopAfter", Reason: "must be >= 0"}
	}
	for i, s := range cfg.Protect {
		if s < 0 {
			return &FieldError{Field: "Protect", Reason: "site ordinals must be >= 0"}
		}
		if i > 0 && s <= cfg.Protect[i-1] {
			return &FieldError{Field: "Protect", Reason: "must be strictly ascending"}
		}
	}
	return nil
}

// transformOptions derives the FPM pass options from the campaign
// configuration: the default injection classes plus the
// selective-protection site list.
func (cfg CampaignConfig) transformOptions() transform.Options {
	o := transform.DefaultOptions()
	o.Protect = cfg.Protect
	return o
}

// withDefaults resolves the zero-value conventions into concrete settings.
// Defaults that are result-determining (HangFactor, the adaptive phase
// count) must be applied before fingerprinting, which is why Fingerprint
// normalizes the same way.
func (cfg CampaignConfig) withDefaults() CampaignConfig {
	if cfg.HangFactor == 0 {
		cfg.HangFactor = 4
	}
	if cfg.Strata == 0 {
		cfg.Strata = cfg.Sampling.phases()
	}
	if cfg.KeepProfiles == 0 {
		cfg.KeepProfiles = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// ExperimentSummary is the retained record of one injection run.
type ExperimentSummary struct {
	ID      int
	Plan    inject.Plan
	Outcome classify.Outcome
	// Planned reports whether the plan contained at least one fault.
	// Multi-fault mode legitimately draws zero-fault plans; those runs
	// must not masquerade as injections into rank 0.
	Planned bool
	// InjRank is the rank of the first planned fault (meaningless unless
	// Planned).
	InjRank int
	// InjCycle is the rank-local application cycle of the first applied
	// fault (0 when the fault never fired).
	InjCycle uint64
	// Fired reports whether any planned fault actually applied.
	Fired bool
	// MaxCML is the peak of the injected rank's CML.
	MaxCML int
	// TotalPeakCML sums every rank's peak CML.
	TotalPeakCML int
	// ContamPct is TotalPeakCML over the application memory extent, in
	// percent (paper Fig. 7f).
	ContamPct float64
	// RanksContaminated counts ranks whose memory was ever contaminated.
	RanksContaminated int
	// Cycles is the run's maximum application cycle count.
	Cycles uint64
	// Fit is the per-run propagation model, when one could be fitted.
	Fit    model.RunFit
	HasFit bool
	// Stratum is the experiment's sampling stratum when the campaign is
	// stratified — the class × phase cell of the plan's first fault (see
	// Strata) — and 0 otherwise, omitted from JSON so unstratified journals
	// and partials keep their historical bytes.
	Stratum int `json:",omitempty"`
	// Pattern is the propagation-pattern record when per-site analytics are
	// enabled (Sampling.Sites): the static site of the first fault, the CML
	// trajectory shape, and the cleanse cause. Nil otherwise (and for
	// zero-fault plans), omitted from JSON so legacy journals and partials
	// keep their historical bytes.
	Pattern *analytics.Pattern `json:",omitempty"`
	// Diag carries the recovered panic diagnostic when the experiment
	// infrastructure itself failed; such runs classify as Crashed.
	Diag string `json:",omitempty"`
}

// Profile is a retained CML(t) series with its classification (Fig. 7).
type Profile struct {
	ID      int
	Outcome classify.Outcome
	Points  []trace.Point
}

// SpreadSeries is a retained corrupted-ranks-over-time series (Fig. 8).
type SpreadSeries struct {
	ID     int
	Points []trace.SpreadPoint
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	App         string
	Params      apps.Params
	Runs        int
	Golden      classify.Golden
	GoldenSites []uint64
	// AllocatedWords is the per-job application memory extent.
	AllocatedWords int64

	Tally       classify.Tally
	Experiments []ExperimentSummary
	Profiles    []Profile
	BestSpread  SpreadSeries
	Model       model.AppModel
	// StructTotals sums end-of-run contamination per data structure over
	// all experiments (the DVF-style breakdown).
	StructTotals map[string]int
	// Strata is the per-stratum vulnerability table when the campaign was
	// stratified (nil otherwise). For adaptive campaigns Tally.Total — the
	// experiments actually spent — may be well below Runs, the budget.
	Strata []StratumReport
	// Sites is the per-site vulnerability ranking when per-site analytics
	// were enabled (Sampling.Sites), ordered most-vulnerable first; nil
	// otherwise, so legacy results render and serialize unchanged.
	Sites []SiteReport
}

// coreRun and coreRunResumed indirect the core entry points so tests can
// inject infrastructure failures.
var (
	coreRun        = core.Run
	coreRunResumed = core.RunResumed
)

// RunCampaign executes the campaign: a golden profiling run, then Runs
// fault-injection experiments folded one by one into the campaign aggregate.
// Completed experiments are journaled to cfg.Checkpoint when set, and
// cfg.Resume restarts a killed campaign where it left off, with results
// identical to an uninterrupted run.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext is RunCampaign with cancellation: when ctx is
// cancelled the campaign stops handing out new experiments, waits for the
// in-flight ones, journals everything that finished, and returns an error
// wrapping both ErrInterrupted and the context's cause. A cancelled
// campaign with a Checkpoint therefore leaves a resumable journal, and
// resuming it yields results identical to an uninterrupted run.
//
// It is a thin wrapper over RunShardContext: the whole campaign is the
// [0, Runs) shard, finalized in place.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	part, err := RunShardContext(ctx, cfg, ShardSpec{Shards: 1, To: cfg.Runs, Runs: cfg.Runs})
	if err != nil {
		return nil, err
	}
	return part.Finalize()
}

// RunShard is RunShardContext with a background context.
func RunShard(cfg CampaignConfig, spec ShardSpec) (*PartialResult, error) {
	return RunShardContext(context.Background(), cfg, spec)
}

// RunShardContext executes the experiments in spec's ID range [From, To)
// and returns their mergeable partial aggregate. Experiment i draws from
// xrand.At(Seed, i) regardless of sharding, so running a campaign as any
// partition of shards — in any processes, merged in any order — finalizes
// into results byte-identical to the single-process run. When spec carries
// a Fingerprint it must match the configuration; cfg.Checkpoint journals
// are per-shard (give each shard its own path).
func RunShardContext(ctx context.Context, cfg CampaignConfig, spec ShardSpec) (*PartialResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if spec.Runs == 0 {
		spec.Runs = cfg.Runs
	}
	if err := spec.validate(cfg); err != nil {
		return nil, err
	}
	// Every campaign draws the instrumented program and the golden
	// (fault-free) run — reference outputs, cycle budget, and the per-rank
	// dynamic injection-site space — from the configuration's process-wide
	// pack, so repeated campaigns over one configuration share one build and
	// one golden execution (see pack.go).
	pack, err := packFor(cfg)
	if err != nil {
		return nil, err
	}
	part := &PartialResult{
		Fingerprint:    cfg.fingerprint(),
		App:            cfg.App.Name(),
		Params:         cfg.Params,
		Runs:           cfg.Runs,
		Golden:         pack.ref,
		GoldenSites:    pack.goldenSites,
		AllocatedWords: pack.golden.AllocatedTotal,
		KeepProfiles:   cfg.KeepProfiles,
		MaxSummaries:   cfg.MaxSummaries,
		// Initialised so an experiment-less shard encodes {} and [], not
		// null.
		StructTotals: map[string]int{},
		Fits:         []IDFit{},
	}

	criteria := classify.DefaultCriteria()
	cycleLimit := uint64(float64(pack.ref.Cycles) * cfg.HangFactor)

	// Stratified and per-site-analytic campaigns additionally read the
	// pack's site map, which maps every (rank, site) to its static fim_inj
	// ordinal and so to its instruction class.
	var strata *Strata
	var sites *siteMap
	if cfg.needsSiteMap() {
		m, err := pack.siteMapOf(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.stratified() {
			strata = pack.strata(m, cfg.Sampling.phases())
		}
		if cfg.Sites {
			sites = m
		}
	}
	// The planner engages only for whole-range adaptive shards. An
	// explicit-ID shard is already one planner's decision: its worker
	// executes the round verbatim and stays policy-free.
	adaptive := cfg.Adaptive() && len(spec.IDs) == 0

	e := &campaignEngine{
		ctx:        ctx,
		cfg:        cfg,
		inst:       pack.inst,
		part:       part,
		criteria:   criteria,
		cycleLimit: cycleLimit,
		strata:     strata,
		sites:      sites,
		completed:  make(map[int]bool, spec.Size()),
	}
	if adaptive {
		e.outcomes = make(map[int]classify.Outcome, spec.Size())
	}

	ids := spec.ids()
	if cfg.Checkpoint != "" {
		// The journal fingerprint binds the file to this shard's range as
		// well as the campaign config (full-range runs keep the legacy
		// campaign-only hash, so existing journals stay resumable).
		fp := journalFingerprint(part.Fingerprint, spec)
		var keep int64
		if cfg.Resume {
			if adaptive {
				// An adaptive resume from a fixed-N journal is the one
				// mismatch a config-level Validate cannot catch; diagnose it
				// as the field error it is instead of a bare hash mismatch.
				if err := checkAdaptiveResume(cfg, spec, fp); err != nil {
					return nil, err
				}
			}
			recs, k, err := readJournal(cfg.Checkpoint, fp)
			if err != nil {
				return nil, err
			}
			keep = k
			inShard := make(map[int]bool, len(ids))
			for _, id := range ids {
				inShard[id] = true
			}
			for i := range recs {
				rec := &recs[i]
				id := rec.Sum.ID
				if !inShard[id] || e.completed[id] {
					continue
				}
				e.completed[id] = true
				e.resumed++
				part.add(rec, strata, sites)
				if e.outcomes != nil {
					e.outcomes[id] = rec.Sum.Outcome
				}
				if cfg.OnExperiment != nil {
					cfg.OnExperiment(rec.Sum, true)
				}
			}
		}
		jw, err := openJournal(cfg.Checkpoint, fp, cfg.Trace, keep)
		if err != nil {
			return nil, err
		}
		e.journal = jw
		defer e.journal.Close()
	}

	var pending []int
	for _, id := range ids {
		if !e.completed[id] {
			pending = append(pending, id)
		}
	}

	// Snapshot-fork schedule: the pack's captured cuts. A nil schedule
	// (Snapshots: 0, no quiesce points) just means every experiment runs
	// from step 0 — results are identical either way.
	e.sched = pack.schedule(cfg)

	cfg.Progress.begin(spec.Size(), cfg.Workers)
	cfg.Progress.noteResumed(e.resumed)

	if adaptive {
		if err := e.runAdaptive(ids); err != nil {
			return nil, err
		}
		if !part.AdaptiveDone {
			spent := e.resumed + e.executed
			if cause := context.Cause(ctx); cause != nil {
				return nil, fmt.Errorf("%w after %d of budget %d: %v",
					ErrInterrupted, spent, spec.Size(), cause)
			}
			return nil, fmt.Errorf("%w after %d of budget %d",
				ErrInterrupted, spent, spec.Size())
		}
	} else {
		if err := e.runIDs(pending); err != nil {
			return nil, err
		}
		if e.resumed+e.executed < spec.Size() {
			if cause := context.Cause(ctx); cause != nil {
				return nil, fmt.Errorf("%w after %d of %d experiments: %v",
					ErrInterrupted, e.resumed+e.executed, spec.Size(), cause)
			}
			return nil, fmt.Errorf("%w after %d of %d experiments",
				ErrInterrupted, e.resumed+e.executed, spec.Size())
		}
	}
	part.Timings = cfg.Timings
	part.Ranges = completedRanges(ids, e.completed)
	return part, nil
}

// completedRanges coalesces the completed subset of ids (ascending) into
// normalized ID ranges.
func completedRanges(ids []int, completed map[int]bool) []IDRange {
	var out []IDRange
	for _, id := range ids {
		if !completed[id] {
			continue
		}
		if n := len(out); n > 0 && out[n-1].To == id {
			out[n-1].To = id + 1
			continue
		}
		out = append(out, IDRange{From: id, To: id + 1})
	}
	return out
}

// campaignEngine is the execution core shared by fixed-N and adaptive
// campaigns: a worker pool that runs an arbitrary set of experiment IDs
// into the shard's PartialResult, journaling every completion. Fixed-N
// shards call runIDs once over their pending range; the adaptive planner
// calls it once per round.
type campaignEngine struct {
	ctx        context.Context
	cfg        CampaignConfig
	inst       *ir.Program
	part       *PartialResult
	criteria   classify.Criteria
	cycleLimit uint64
	sched      *snapSchedule
	strata     *Strata
	sites      *siteMap
	journal    *journalWriter

	// completed marks every finished experiment (replayed or executed);
	// outcomes mirrors their classifications for the adaptive planner (nil
	// for fixed-N shards, which never read outcomes back).
	completed map[int]bool
	outcomes  map[int]classify.Outcome

	resumed  int
	executed int
	// halted records that work intake stopped early (cancellation or
	// StopAfter); subsequent runIDs calls are no-ops.
	halted bool
}

// runIDs executes the given experiment IDs on the engine's worker pool and
// folds every completion into the aggregate (and journal). It returns an
// error only for journal failures; cancellation and StopAfter set
// e.halted, and in-flight experiments drain into the aggregate either way
// so they are journaled before the engine unwinds.
func (e *campaignEngine) runIDs(ids []int) error {
	if e.halted || len(ids) == 0 {
		return nil
	}
	cfg := e.cfg
	work := make(chan int)
	outs := make(chan expOut, cfg.Workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// Cancellation stops work intake; in-flight experiments drain through
	// the aggregation loop below so they are journaled before returning.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-e.ctx.Done():
			halt()
		case <-watchDone:
		}
	}()

	// Per-worker reuse bundle: the address spaces, contamination tables and
	// MPI job fabric are recycled through every experiment of the worker.
	// A fresh bundle is a few KiB a rank (vm.Memory backs what is written),
	// so each run allocates its own and drops them with its workers.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := cfg
			wcfg.reuse = core.NewReuse(cfg.Params.Ranks)
			// Phase tracing costs ~two time.Now calls per experiment when
			// enabled and a nil check when not.
			traced := cfg.Timings != nil || cfg.OnPhase != nil
			for id := range work {
				if cfg.Gate != nil {
					<-cfg.Gate
				}
				cfg.Progress.noteStart()
				t0 := time.Now()
				var tr *PhaseTrace
				if traced {
					tr = &PhaseTrace{ID: id}
				}
				plan := planFor(cfg, id, e.part.GoldenSites)
				if tr != nil {
					tr.Inject = time.Since(t0)
				}
				o := runExperiment(id, e.inst, plan, wcfg, e.criteria, e.part.Golden, e.cycleLimit, e.sched, tr)
				if e.strata != nil {
					o.Sum.Stratum = e.strata.StratumOf(plan)
				}
				if e.sites != nil {
					o.Sum.Pattern = e.sites.patternFor(plan, o.Sum, o.Points)
				}
				elapsed := time.Since(t0)
				cfg.Progress.noteDone(o.Sum.Outcome, elapsed)
				if o.exited {
					cfg.Progress.noteExit()
				}
				if tr != nil {
					tr.Outcome = o.Sum.Outcome
					tr.Total = elapsed
					cfg.Timings.Observe(*tr)
					if cfg.OnPhase != nil {
						cfg.OnPhase(*tr)
					}
				}
				if cfg.Gate != nil {
					cfg.Gate <- struct{}{}
				}
				outs <- o
			}
		}()
	}
	go func() {
		defer close(work)
		for _, id := range ids {
			select {
			case work <- id:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outs)
	}()

	var journalErr error
	for o := range outs {
		if e.journal != nil && journalErr == nil {
			if err := e.journal.write(&o.journalRecord); err != nil {
				journalErr = fmt.Errorf("harness: checkpoint append: %w", err)
				e.halted = true
				halt()
			}
		}
		e.part.add(&o.journalRecord, e.strata, e.sites)
		e.completed[o.Sum.ID] = true
		if e.outcomes != nil {
			e.outcomes[o.Sum.ID] = o.Sum.Outcome
		}
		e.executed++
		if cfg.OnExperiment != nil {
			cfg.OnExperiment(o.Sum, false)
		}
		if cfg.StopAfter > 0 && e.executed >= cfg.StopAfter {
			e.halted = true
			halt()
		}
	}
	halt()
	// Cancellation is observed here, on the engine's own goroutine, rather
	// than in the watcher above (which would race with the loop's writes).
	if e.ctx.Err() != nil {
		e.halted = true
	}
	return journalErr
}

// planFor draws experiment id's fault plan from its position-addressable
// random stream. RunCampaign validated that at least one rank has
// injection sites, so single-fault planning cannot fail here.
func planFor(cfg CampaignConfig, id int, sites []uint64) inject.Plan {
	r := xrand.At(cfg.Seed, uint64(id))
	if cfg.MultiFaultLambda > 0 {
		return inject.MultiFaultPlan(r, sites, cfg.MultiFaultLambda)
	}
	p, _ := inject.UniformSinglePlan(r, sites)
	return p
}

// expOut is one executed experiment: the record the journal writes and
// the campaign aggregate folds, plus telemetry that is never journaled.
type expOut struct {
	journalRecord
	// exited reports a run that ended at a golden-equal cut.
	exited bool
}

// runExperiment executes one fault-injection run and condenses it. A panic
// anywhere in the experiment pipeline is contained here: the run classifies
// as Crashed with the diagnostic retained, and the campaign continues.
// When tr is non-nil the restore, execute and classify phases are timed
// into it (a panicking experiment leaves whatever phases completed).
func runExperiment(id int, inst *ir.Program, plan inject.Plan, cfg CampaignConfig,
	criteria classify.Criteria, golden classify.Golden, cycleLimit uint64,
	sched *snapSchedule, tr *PhaseTrace) (out expOut) {

	defer func() {
		if p := recover(); p != nil {
			out = expOut{journalRecord: journalRecord{Kind: "exp", Sum: ExperimentSummary{
				ID:      id,
				Plan:    plan,
				Planned: len(plan.Faults) > 0,
				Outcome: classify.Crashed,
				Diag:    fmt.Sprintf("experiment panic: %v\n%s", p, debug.Stack()),
			}}}
		}
	}()

	var phaseStart time.Time
	if tr != nil {
		phaseStart = time.Now()
	}
	rcfg := core.RunConfig{
		Ranks:       cfg.Params.Ranks,
		CycleLimit:  cycleLimit,
		Plan:        plan,
		SampleEvery: cfg.SampleEvery,
		Reuse:       cfg.reuse,
	}
	var run core.RunOutcome
	snap := sched.Best(plan)
	rcfg.Tail = sched.Tail(plan, snap)
	if snap != nil {
		run = coreRunResumed(inst, rcfg, snap)
	} else {
		run = coreRun(inst, rcfg)
	}
	if tr != nil {
		now := time.Now()
		tr.Restore = run.RestoreDur
		tr.Execute = now.Sub(phaseStart) - run.RestoreDur
		tr.Forked = run.Forked
		tr.RestoreBytes = run.RestoreBytes
		if run.Forked {
			tr.RestoreFrac = 1
		}
		tr.BackedBytes = run.BackedBytes
		tr.Deadlock, tr.Timeout = run.Deadlock, run.Timeout
		tr.Exited, tr.SkippedCycles = run.Exited, run.SkippedCycles
		phaseStart = now
	}
	sum := ExperimentSummary{
		ID:           id,
		Plan:         plan,
		Planned:      len(plan.Faults) > 0,
		Outcome:      criteria.Classify(golden, run.ToRunResult()),
		TotalPeakCML: run.MaxCMLTotal,
		Cycles:       run.Cycles,
	}
	if sum.Planned {
		sum.InjRank = plan.Faults[0].Rank
	}
	if run.AllocatedTotal > 0 {
		sum.ContamPct = 100 * float64(run.MaxCMLTotal) / float64(run.AllocatedTotal)
	}
	// Casualty ranks (cut down at a scheduling-dependent moment after a
	// peer crashed) carry no reliable observations; skipping them keeps
	// every summary field a pure function of the seed.
	var points []trace.Point
	if sum.Planned && sum.InjRank < len(run.Ranks) && !run.Ranks[sum.InjRank].Casualty {
		rr := run.Ranks[sum.InjRank]
		sum.MaxCML = rr.MaxCML
		points = rr.Points
		if len(rr.InjCycles) > 0 {
			sum.InjCycle = rr.InjCycles[0]
			sum.Fired = true
		}
	}
	for i := range run.Ranks {
		if run.Ranks[i].Ever && !run.Ranks[i].Casualty {
			sum.RanksContaminated++
		}
	}
	// Fit the propagation model from the injected rank's CML series,
	// starting at the first contamination (the paper fits the growth
	// segment of each profile).
	if fit, err := model.FitRun(points); err == nil {
		sum.Fit = fit
		sum.HasFit = true
	}
	if tr != nil {
		tr.Classify = time.Since(phaseStart)
	}
	return expOut{journalRecord: journalRecord{Kind: "exp", Sum: sum, Points: points,
		Spread: run.Spread.Series(), StructCML: run.StructCML}, exited: run.Exited}
}
