package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analytics"
	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/model"
	"repro/internal/trace"
)

// ErrInterrupted reports a campaign stopped before completing every run;
// the checkpoint journal holds the completed experiments.
var ErrInterrupted = errors.New("harness: campaign interrupted")

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
	return runShard(ctx, cfg, spec, nil)
}

// Executor runs batches of a campaign's experiments outside the engine's
// worker pool, on other processes or machines. The engine calls it with
// each batch it would otherwise execute itself: a fixed campaign's pending
// IDs, or one adaptive round's. The executor splits the batch into
// explicit-ID shard specs (PlanRoundShards), runs each as a shard with its
// own checkpoint journal, and calls fold with each finished spec and the
// bytes of its journal. fold checks the journal against the spec and folds
// its records into the campaign as the engine folds the experiments it
// executes: journal, aggregate, OnExperiment, Progress. It must be called
// from the executor's calling goroutine, which the engine blocks in the
// meantime. An executor returns once every ID of the batch is folded, or
// with the error that stopped it: the first error fold returned, or one
// wrapping ErrInterrupted when ctx ended.
type Executor func(ctx context.Context, ids []int, fold func(spec ShardSpec, journal []byte) error) error

// RunRemoteContext runs cfg's whole campaign as RunCampaignContext does —
// its journal at cfg.Checkpoint, resumed when cfg.Resume is set, the fixed
// or adaptive plan of the local engine — but every batch of experiments
// runs on exec, and it returns the campaign's partial for the caller to
// finalize. The journal it writes is the campaign's own: a resume of it
// executes only what it lacks, locally or remotely alike. StopAfter does
// not apply.
func RunRemoteContext(ctx context.Context, cfg CampaignConfig, exec Executor) (*PartialResult, error) {
	return runShard(ctx, cfg, ShardSpec{Shards: 1, To: cfg.Runs, Runs: cfg.Runs}, exec)
}

// runShard is RunShardContext, with the batches it executes handed to exec
// when that is set.
func runShard(ctx context.Context, cfg CampaignConfig, spec ShardSpec, exec Executor) (*PartialResult, error) {
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
	pack, part, strata, sites, err := newPartial(cfg)
	if err != nil {
		return nil, err
	}
	key := cfg.key()
	criteria := classify.DefaultCriteria()
	cycleLimit := uint64(float64(pack.ref.Cycles) * cfg.HangFactor)
	// The planner engages only for whole-range adaptive shards. An
	// explicit-ID shard is already one planner's decision: its worker
	// executes the round verbatim and stays policy-free.
	adaptive := cfg.Adaptive() && len(spec.IDs) == 0

	e := &campaignEngine{
		ctx:        ctx,
		cfg:        cfg,
		key:        key,
		exec:       exec,
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
		hdr := headerOf(cfg, key, spec)
		// Only a whole campaign resumes from a shorter one's journal: a
		// shard resumes from its own.
		want := hdr
		if hdr.Fingerprint != part.Fingerprint {
			want.Family = ""
		}
		var keep int64
		var rehead bool
		if cfg.Resume {
			if adaptive {
				// An adaptive resume from a fixed-N journal is the one
				// mismatch a config-level Validate cannot catch; diagnose it
				// as the field error it is instead of a bare hash mismatch.
				if err := checkAdaptiveResume(cfg, spec, hdr.Fingerprint); err != nil {
					return nil, err
				}
			}
			recs, k, rh, err := readJournal(cfg.Checkpoint, want)
			if err != nil {
				return nil, err
			}
			keep, rehead = k, rh
			inShard := make(map[int]bool, len(ids))
			for _, id := range ids {
				inShard[id] = true
			}
			e.replay(recs, inShard)
		}
		jw, err := openJournal(cfg.Checkpoint, hdr, keep, rehead)
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

// newPartial returns the pack of cfg (which withDefaults resolved) and an
// empty partial of its campaign, with the strata and the site map its
// experiments fold in under (nil when the campaign has none).
func newPartial(cfg CampaignConfig) (*snapshotPack, *PartialResult, *Strata, *siteMap, error) {
	// Every campaign draws the instrumented program and the golden
	// (fault-free) run — reference outputs, cycle budget, and the per-rank
	// dynamic injection-site space — from the configuration's process-wide
	// pack, so repeated campaigns over one configuration share one build and
	// one golden execution (see pack.go).
	pack, err := packFor(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	part := &PartialResult{
		Fingerprint:    cfg.key().fingerprint(),
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
	// Stratified and per-site-analytic campaigns additionally read the
	// pack's site map, which maps every (rank, site) to its static fim_inj
	// ordinal and so to its instruction class.
	var strata *Strata
	var sites *siteMap
	if cfg.needsSiteMap() {
		m, err := pack.siteMapOf(cfg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if cfg.stratified() {
			strata = pack.strata(m, cfg.Sampling.phases())
		}
		if cfg.Sites {
			sites = m
		}
	}
	return pack, part, strata, sites, nil
}

// replay folds the journaled records recs into the campaign as a resume
// does: the first record of each experiment of the shard (inShard) is
// marked completed, added to the partial and shown to
// OnExperiment as resumed, and its outcome feeds the adaptive planner.
func (e *campaignEngine) replay(recs []journalRecord, inShard map[int]bool) {
	for i := range recs {
		rec := &recs[i]
		id := rec.Sum.ID
		if !inShard[id] || e.completed[id] {
			continue
		}
		e.completed[id] = true
		e.resumed++
		e.part.add(rec, e.strata, e.sites)
		if e.outcomes != nil {
			e.outcomes[id] = rec.Sum.Outcome
		}
		if e.cfg.OnExperiment != nil {
			e.cfg.OnExperiment(rec.Sum, true)
		}
	}
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
