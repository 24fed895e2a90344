package harness

import (
	"fmt"
	"runtime"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/transform"
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
	// Checkpoint, when set, journals every completed experiment to this
	// JSONL path, behind one header record, so a killed campaign can be
	// resumed.
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
	// RunShardContext stamps them into the PartialResult, and faultpropd
	// into a shard job's done status, so shard timings merge back at the
	// coordinator. Observed from worker goroutines
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
// The result-determining ones (HangFactor, the phase count) come from the
// campaign key, which resolves them for the fingerprint too.
func (cfg CampaignConfig) withDefaults() CampaignConfig {
	k := cfg.key()
	cfg.HangFactor, cfg.Strata = k.hang, k.strata
	if cfg.KeepProfiles == 0 {
		cfg.KeepProfiles = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}
