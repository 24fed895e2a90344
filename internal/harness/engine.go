package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// coreRun and coreRunResumed indirect the core entry points so tests can
// inject infrastructure failures.
var (
	coreRun        = core.Run
	coreRunResumed = core.RunResumed
)

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
				cfg.Progress.noteExit(o.exited, o.ghosts)
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
	// exited reports a run that ended at a golden-equal cut, ghosts the
	// ranks that ended replaying golden traffic.
	exited bool
	ghosts int
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
		tr.GhostExits, tr.GhostResumes = run.GhostExits, run.GhostResumes
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
		Spread: run.Spread.Series(), StructCML: run.StructCML}, exited: run.Exited, ghosts: run.GhostExits}
}
