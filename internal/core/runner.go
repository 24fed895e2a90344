// Package core is the paper's primary contribution glued end to end: the
// fault propagation framework for MPI applications (§3). It wires the
// FPM-instrumented program, the LLFI++ injector, the MPI runtime, the
// contamination tables and the trace recorders into one parallel job, and
// exposes the per-experiment analysis pipeline (golden profiling, fault
// planning, injected execution, outcome classification and propagation
// model fitting) that campaigns are built from.
package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RunConfig parameterizes one parallel execution of an (instrumented or
// plain) program.
type RunConfig struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// CycleLimit kills a rank as hung; 0 disables. Campaigns use a
	// multiple of the golden cycle count.
	CycleLimit uint64
	// Plan is the fault plan; an empty plan runs fault-free.
	Plan inject.Plan
	// SampleEvery subsamples the CML trace (0: keep every change).
	SampleEvery uint64
	// Timeout is the wall-clock bound on a blocking MPI call (0: a generous
	// default). It is the net under framework bugs only: stalled experiments
	// end in logical time (mpi.ErrDeserted, mpi.ErrDeadlock), so a run that
	// reports RunOutcome.Timeout is itself a bug report.
	Timeout time.Duration
	// TrackTaint enables the naive-taint tracker in every rank's VM (for
	// the dual-chain vs. taint ablation).
	TrackTaint bool
	// MemFaults maps rank -> direct memory-level faults (the
	// injection-model ablation).
	MemFaults map[int][]vm.MemFault
	// Tail lists the golden cuts at which the run may end early because
	// every rank is back in the golden state (see exit.go), or a rank may
	// replay its golden traffic instead of executing (ghost.go). Like Plan
	// it is per-run data; golden profiling and capture runs ignore it.
	Tail Tail
	// Reuse recycles the allocation-heavy run infrastructure (per-rank VM
	// state and the MPI job fabric) across consecutive Run calls. A Reuse
	// must be owned by a single worker: pass it to one Run at a time. Nil,
	// or a bundle sized for another rank count, gives the run a private
	// bundle.
	Reuse *Reuse
}

// normalized resolves the zero-value conventions: at least one rank, and a
// Reuse bundle of that rank count — every run executes on a bundle, so the
// runner has one allocation path.
func (cfg RunConfig) normalized() RunConfig {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.Reuse == nil || len(cfg.Reuse.states) != cfg.Ranks {
		cfg.Reuse = NewReuse(cfg.Ranks)
	}
	return cfg
}

// Reuse bundles what a campaign worker recycles between experiments: one
// vm.State per rank, the MPI job (mailbox channels, endpoints and their
// timers), the per-rank injectors and trace recorders, and the runner's own
// scratch. Observable results do not depend on which bundle a run uses.
type Reuse struct {
	states []*vm.State
	job    *mpi.Job
	injs   []*inject.RankInjector
	recs   []*trace.Recorder
	// ptsHint/ticksHint remember the previous run's series lengths so the
	// recorder's escaping slices are allocated once at the right size.
	ptsHint   []int
	ticksHint []int
	rs        []rankState
	done      chan int
	// regions caches RegionsOf(regionsProg), a pure function of the
	// program that every run needs.
	regionsProg *ir.Program
	regions     []StructRegion
	// vote is the cut rendezvous of capture runs and of runs with a Tail.
	vote cutVote
	// links are the ranks' MPI endpoints and aborts their VMs' abort flags
	// (ghost.go).
	links  []rankLink
	aborts abortFlags
}

// ReleaseSnapshot does nothing: captures are not recycled, because a
// snapshot one caller retires may still seed another caller's forks. It
// remains for callers that retire snapshots between timed captures.
func (ru *Reuse) ReleaseSnapshot(*CampaignSnapshot) {}

// NewReuse prepares a reuse bundle for jobs of the given rank count.
func NewReuse(ranks int) *Reuse {
	r := &Reuse{
		states:    make([]*vm.State, ranks),
		injs:      make([]*inject.RankInjector, ranks),
		recs:      make([]*trace.Recorder, ranks),
		ptsHint:   make([]int, ranks),
		ticksHint: make([]int, ranks),
		rs:        make([]rankState, ranks),
		done:      make(chan int, ranks),
		links:     make([]rankLink, ranks),
		aborts:    abortFlags{flags: make([]vm.AbortFlag, ranks), held: make([]bool, ranks)},
	}
	for i := range r.states {
		r.states[i] = vm.NewState()
		r.injs[i] = inject.NewRankInjector(inject.Plan{}, i)
		r.recs[i] = &trace.Recorder{}
	}
	return r
}

// BackedBytes returns, rank by rank, the address-space backing the bundle
// holds between runs.
func (ru *Reuse) BackedBytes() []int64 {
	out := make([]int64, len(ru.states))
	for r, st := range ru.states {
		out[r] = st.BackedBytes()
	}
	return out
}

type rankState struct {
	v   *vm.VM
	rec *trace.Recorder
	inj *inject.RankInjector
}

// RankResult is one rank's observation of a run.
type RankResult struct {
	Err error
	// Casualty marks a rank that died of TrapPeerFailure after another
	// rank took the job down. Such a rank stopped at whatever point it
	// happened to notice the abort — a scheduling-dependent moment — so
	// its final observations are excluded from the run's aggregates to
	// keep them a pure function of the seed. The raw fields below are
	// still populated for diagnostics.
	Casualty       bool
	Outputs        []float64
	Cycles         uint64
	Sites          uint64
	InjCycles      []uint64
	Iterations     int64
	MaxCML         int
	FinalCML       int
	Ever           bool
	AllocatedWords int64
	Points         []trace.Point
	FirstContam    int64
	Contaminated   bool
	// TaintPeak is the naive-taint peak count (when TrackTaint is on).
	TaintPeak int
	// MemFaultsApplied counts direct memory faults that fired.
	MemFaultsApplied int
	// StructCML attributes the rank's end-of-run contamination to data
	// structures (global name, "(heap)", or "(stack)").
	StructCML map[string]int
	// Ghost marks a rank that ended replaying its golden traffic (ghost.go)
	// and took the golden run's final values. Telemetry: its values are
	// those of a full execution.
	Ghost bool
}

// RunOutcome aggregates a run across ranks.
type RunOutcome struct {
	Ranks []RankResult
	// Err is the root-cause failure: the first non-peer trap if any rank
	// died, nil when the job completed.
	Err error
	// Outputs is the rank-major concatenation of all rank outputs (only
	// meaningful when Err is nil).
	Outputs []float64
	// Cycles is the maximum application cycles over ranks.
	Cycles uint64
	// Iterations is the maximum reported solver iteration count.
	Iterations int64
	// Ever reports whether any rank's memory was ever contaminated.
	Ever bool
	// MaxCMLTotal is the sum over ranks of each rank's peak CML.
	MaxCMLTotal int
	// TaintPeakTotal sums each rank's naive-taint peak (TrackTaint runs).
	TaintPeakTotal int
	// AllocatedTotal is the summed application memory extent, the
	// denominator for contamination percentages.
	AllocatedTotal int64
	// Spread is the corrupted-ranks-over-time aggregation (Fig. 8).
	Spread *trace.RankSpread
	// StructCML aggregates end-of-run contamination by data structure
	// across ranks.
	StructCML map[string]int
	// RestoreDur is the wall-clock time spent restoring snapshot state
	// before execution (zero for from-scratch runs).
	RestoreDur time.Duration
	// Forked marks a run started from a snapshot; the restore stats below
	// are only meaningful when set.
	Forked bool
	// RestoreBytes totals the bytes copied while restoring snapshot state
	// across all ranks: every rank's whole snapshot.
	RestoreBytes int64
	// BackedBytes sums, over the run's ranks, the address-space backing
	// allocated when the run ended (vm.Memory.BackedBytes): a few KiB a
	// rank unless a fault made the run store far outside its data.
	// Telemetry like the restore stats, never part of the results.
	BackedBytes int64
	// Deadlock reports that the job ended because every live rank was
	// blocked in MPI with no call able to complete (mpi.ErrDeadlock);
	// Timeout that a blocking call hit the wall-clock safety timeout
	// instead, which no experiment should. Telemetry: the run's results are
	// the same either way.
	Deadlock, Timeout bool
	// Exited reports that the run ended at a golden-equal cut of its Tail
	// and took the golden run's final values; SkippedCycles sums, over the
	// ranks, the golden-tail cycles it therefore did not execute, the tails
	// of ranks that ended as ghosts included. GhostExits counts those ranks,
	// and GhostResumes the ghosts that resumed (ghost.go). Telemetry like the
	// restore stats: the results are those of a full execution.
	Exited        bool
	SkippedCycles uint64
	GhostExits    int
	GhostResumes  int
}

// extras carries the golden runs' hooks through the shared runner body: a
// snapshot to resume from, per-rank quiesce hooks (golden profiling), the
// snapshots a capture run fills, and the site map and traffic it records.
type extras struct {
	snap    *CampaignSnapshot
	hooks   []vm.QuiesceHook
	capture []*CampaignSnapshot
	sites   SiteRuns
	traffic Traffic
}

// Run executes prog on cfg.Ranks ranks and collects per-rank observations.
// The program is typically FPM-instrumented; plain programs run too (with
// no sites and no contamination tracking).
func Run(prog *ir.Program, cfg RunConfig) RunOutcome {
	return runWith(prog, cfg, extras{})
}

// RunResumed executes prog starting from a captured campaign snapshot
// instead of from step 0: each rank's VM is forked from the snapshot and
// the job's message-passing world is rewound to the same cut, so the run is
// observably identical to a from-scratch execution of the same plan. The
// plan must be Usable with the snapshot.
func RunResumed(prog *ir.Program, cfg RunConfig, snap *CampaignSnapshot) RunOutcome {
	return runWith(prog, cfg, extras{snap: snap})
}

func runWith(prog *ir.Program, cfg RunConfig, ex extras) RunOutcome {
	cfg = cfg.normalized()
	ru := cfg.Reuse
	if ru.job == nil || !ru.job.Recycle(cfg.Ranks, cfg.Timeout) {
		ru.job = mpi.NewJob(cfg.Ranks, cfg.Timeout)
	}
	job := ru.job
	ru.aborts.reset(job)
	for r := range ru.links {
		l := &ru.links[r]
		l.ep, l.rank, l.abort, l.log = job.Endpoint(r), r, &ru.aborts, nil
		l.golden, l.catching, l.replayed, l.pend = nil, false, nil, surprise{}
		if ex.traffic != nil {
			l.log = &ex.traffic[r]
		}
	}
	// A capture run, or a run with cuts to end at, votes at its cuts.
	var vote *cutVote
	switch {
	case ex.capture != nil:
		vote = &ru.vote
		vote.reset(ru, ex.capture, true, nil)
	case len(cfg.Tail.Cuts) > 0:
		if g := cfg.Tail.Golden; g == nil || len(g.Ranks) != cfg.Ranks {
			panic(fmt.Sprintf("core: a %d-rank run's tail lacks a golden outcome of as many ranks", cfg.Ranks))
		}
		if t := cfg.Tail.Traffic; t != nil && (len(t) != cfg.Ranks || len(cfg.Tail.Cuts[0].ops) != cfg.Ranks) {
			panic(fmt.Sprintf("core: a %d-rank run's tail traffic is not of its capture", cfg.Ranks))
		}
		vote = &ru.vote
		vote.reset(ru, cfg.Tail.Cuts, false, cfg.Tail.Traffic)
	}
	var restoreStart time.Time
	if ex.snap != nil {
		if len(ex.snap.vms) != cfg.Ranks {
			panic(fmt.Sprintf("core: snapshot of %d ranks resumed with %d", len(ex.snap.vms), cfg.Ranks))
		}
		restoreStart = time.Now()
		job.RestoreWorld(ex.snap.world)
	}
	out := RunOutcome{
		Ranks:     make([]RankResult, cfg.Ranks),
		Spread:    &trace.RankSpread{},
		StructCML: make(map[string]int),
	}
	if ru.regionsProg != prog {
		ru.regionsProg, ru.regions = prog, RegionsOf(prog)
	}
	regions := ru.regions
	states, done := ru.rs, ru.done
	// Build every VM before starting any rank: a construction panic must
	// not escape while goroutines are already mutating the bundle's state
	// of earlier ranks.
	for r := 0; r < cfg.Ranks; r++ {
		rec, injr := ru.recs[r], ru.injs[r]
		ptsHint, ticksHint := ru.ptsHint[r], ru.ticksHint[r]
		if ex.snap == nil {
			rec.Reset(cfg.SampleEvery, ptsHint, ticksHint)
		}
		injr.Reset(cfg.Plan, r)
		var quiesce vm.QuiesceHook
		switch {
		case r < len(ex.hooks):
			quiesce = ex.hooks[r]
		case vote != nil:
			quiesce = &vote.hooks[r]
		}
		var sites *[]vm.SiteRun
		if r < len(ex.sites) {
			sites = &ex.sites[r]
		}
		v := vm.New(prog, vm.Config{
			CycleLimit:  cfg.CycleLimit,
			Injector:    injr,
			MPI:         &ru.links[r],
			Tracer:      rec,
			Abort:       &ru.aborts.flags[r],
			TrackTaint:  cfg.TrackTaint,
			MemFaults:   cfg.MemFaults[r],
			State:       ru.states[r],
			Quiesce:     quiesce,
			SiteRuns:    sites,
			ForkRestore: ex.snap != nil,
		})
		if ex.snap != nil {
			// Fork rank r from the cut: VM state and the trace history its
			// re-executed prefix would have produced.
			rs := v.RestoreSnap(ex.snap.vms[r])
			rec.RestoreSnap(ex.snap.recs[r], ptsHint, ticksHint)
			out.RestoreBytes += rs.Bytes
		}
		states[r] = rankState{v: v, rec: rec, inj: injr}
	}
	if ex.snap != nil {
		out.Forked = true
		out.RestoreDur = time.Since(restoreStart)
	}
	for r := 0; r < cfg.Ranks; r++ {
		go func(r int) {
			defer func() { done <- r }()
			// A panic escaping the VM (an interpreter bug surfaced by a
			// hostile program or fault plan) must not take down the whole
			// campaign process: contain it to this rank and classify the
			// run as crashed, like any other fatal rank failure.
			defer func() {
				if p := recover(); p != nil {
					if d, ok := p.(*divergence); ok {
						out.Ranks[r].Err = d
					} else {
						out.Ranks[r].Err = fmt.Errorf("core: rank %d panic: %v\n%s",
							r, p, debug.Stack())
					}
					ru.aborts.kill()
				}
			}()
			run := states[r].v.Run
			if ex.snap != nil {
				run = states[r].v.Resume
			}
			if err := run(); err != nil {
				out.Ranks[r].Err = err
				// A dead rank takes the job down, as under real MPI.
				ru.aborts.kill()
			} else {
				// A cleanly finished rank never communicates again; announce
				// the departure so peers blocked on it fail fast (a fault
				// that corrupts a trip count desynchronizes the collective
				// schedule, which would otherwise stall until the wall-clock
				// safety timeout).
				job.Leave(r)
			}
		}(r)
	}
	for i := 0; i < cfg.Ranks; i++ {
		<-done
	}
	out.Deadlock, out.Timeout = job.Deadlocked(), job.TimedOut()
	// Every rank stopped at the same golden-equal cut, or none did.
	out.Exited = vote != nil && vote.exited

	for r := 0; r < cfg.Ranks; r++ {
		st := states[r]
		rr := &out.Ranks[r]
		if t := vm.AsTrap(rr.Err); t != nil && t.Kind == vm.TrapPeerFailure {
			rr.Casualty = true
		}
		rr.Outputs = st.v.Outputs()
		rr.Cycles = st.v.Cycles()
		rr.Sites = st.v.Sites()
		rr.InjCycles = append(rr.InjCycles, st.v.InjectionCycles()...)
		rr.Iterations = st.v.Iterations()
		rr.MaxCML = st.v.Table().Peak()
		rr.FinalCML = st.v.Table().Len()
		rr.Ever = st.v.Table().Ever()
		rr.AllocatedWords = st.v.Mem().AllocatedWords()
		if vote != nil {
			rr.Ghost = vote.hooks[r].ended
			out.GhostResumes += vote.hooks[r].resumes
		}
		if out.Exited || rr.Ghost {
			out.SkippedCycles += spliceGolden(rr, &cfg.Tail.Golden.Ranks[r])
		}
		if rr.Ghost {
			out.GhostExits++
		}
		out.BackedBytes += st.v.Mem().BackedBytes()
		rr.TaintPeak = st.v.TaintPeak()
		rr.MemFaultsApplied = st.v.MemFaultsApplied()
		if st.v.Table().Len() > 0 {
			rr.StructCML = make(map[string]int)
			AttributeTable(regions, st.v.Table(),
				1+prog.GlobalWords, st.v.Mem().AllocatedWords(), rr.StructCML)
		}
		st.rec.Finish(rr.Cycles, rr.FinalCML)
		rr.Points = st.rec.Points()
		if t, ok := st.rec.FirstContamination(); ok {
			rr.FirstContam = t
			rr.Contaminated = true
		}
		// Every observation that touches the VM's memory or table is made
		// by now; the rank's pooled buffers can go back for the next run.
		ru.states[r].Reclaim(st.v)
		ru.ptsHint[r] = len(rr.Points)
		ru.ticksHint[r] = len(st.rec.Ticks())
		if rr.Casualty {
			continue
		}
		for k, v := range rr.StructCML {
			out.StructCML[k] += v
		}
		if rr.Contaminated {
			out.Spread.Note(rr.FirstContam)
		}
		out.Ever = out.Ever || rr.Ever
		out.MaxCMLTotal += rr.MaxCML
		out.TaintPeakTotal += rr.TaintPeak
		out.AllocatedTotal += rr.AllocatedWords
		if rr.Cycles > out.Cycles {
			out.Cycles = rr.Cycles
		}
		if rr.Iterations > out.Iterations {
			out.Iterations = rr.Iterations
		}
	}
	out.Err = rootCause(out.Ranks)
	if out.Err == nil {
		for r := 0; r < cfg.Ranks; r++ {
			out.Outputs = append(out.Outputs, out.Ranks[r].Outputs...)
		}
	}
	// A catch-up that left the golden log is a broken invariant, not an
	// outcome: it reaches the caller as the panic it was.
	for r := range out.Ranks {
		if d, ok := out.Ranks[r].Err.(*divergence); ok {
			panic(d)
		}
	}
	return out
}

// rootCause picks the most informative failure: any trap that is not a
// secondary peer-failure casualty wins; otherwise the first error seen.
func rootCause(ranks []RankResult) error {
	var first error
	for i := range ranks {
		err := ranks[i].Err
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if t := vm.AsTrap(err); t != nil && t.Kind != vm.TrapPeerFailure {
			return err
		}
	}
	return first
}

// ToRunResult converts a RunOutcome into the classifier's shape.
func (o RunOutcome) ToRunResult() classify.RunResult {
	return classify.RunResult{
		Err:              o.Err,
		Outputs:          o.Outputs,
		Cycles:           o.Cycles,
		Iterations:       o.Iterations,
		EverContaminated: o.Ever,
	}
}

// SiteCounts extracts per-rank dynamic site counts (for fault planning).
func (o RunOutcome) SiteCounts() []uint64 {
	counts := make([]uint64, len(o.Ranks))
	for i := range o.Ranks {
		counts[i] = o.Ranks[i].Sites
	}
	return counts
}
