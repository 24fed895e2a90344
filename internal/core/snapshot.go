package core

import (
	"sort"
	"sync"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Snapshot-fork orchestration. A campaign's golden execution runs with a
// profiling hook that maps each quiesce point to the per-rank dynamic site
// counts reached there (RunGoldenProfile: reference outcome and cut profile
// from one run), and — once the campaign has chosen which cuts pay off for
// its fault plans — the program runs fault-free once more with a capture
// hook that records full job state at the chosen cuts (RunGoldenCapture).
// Experiments whose faults all lie at or after a captured cut then fork
// from it via RunResumed instead of re-executing the clean prefix.
//
// Multi-rank capture uses a park-and-capture protocol: quiesce points fire
// on every rank at the same collective round, each rank snapshots its own
// VM and recorder at the hook (no cross-goroutine reads), then parks; the
// last rank to park is the only runner left, captures the message-passing
// world, and releases the others. A rank that dies instead of parking
// kills the job, whose done channel unblocks any parked sibling.

// SiteCut maps one quiesce point of a golden execution to the per-rank
// dynamic site counts reached there: Sites[r] is the first site index of
// rank r that has NOT yet executed at the cut.
type SiteCut struct {
	Seq   uint64
	Sites []uint64
}

// Usable reports whether every fault of the plan lies at or after the cut,
// i.e. whether an experiment with this plan may fork from a snapshot taken
// there.
func (c SiteCut) Usable(plan inject.Plan) bool {
	for _, f := range plan.Faults {
		if f.Rank < 0 || f.Rank >= len(c.Sites) || c.Sites[f.Rank] > f.Site {
			return false
		}
	}
	return true
}

// CampaignSnapshot is the full state of a job at one quiesce cut: every
// rank's VM and trace recorder plus the message-passing world. One
// snapshot forks any number of experiments.
type CampaignSnapshot struct {
	Cut      SiteCut
	vms      []*vm.Snapshot
	recs     []*trace.RecorderSnap
	world    *mpi.WorldSnap
	captured bool
}

// Usable reports whether an experiment with this plan may fork from the
// snapshot.
func (s *CampaignSnapshot) Usable(plan inject.Plan) bool {
	return s != nil && s.captured && s.Cut.Usable(plan)
}

// profileHook records the site count at each quiesce point of one rank.
type profileHook struct {
	sites []uint64
}

func (p *profileHook) Quiesce(v *vm.VM, seq uint64) {
	p.sites = append(p.sites, v.Sites())
}

// RunGoldenProfile is Run for a fault-free golden execution that also
// returns the quiesce-point profile. The cuts are nil when the golden run
// fails (a broken program).
func RunGoldenProfile(prog *ir.Program, cfg RunConfig) (RunOutcome, []SiteCut) {
	cfg = cfg.normalized()
	ranks := cfg.Ranks
	profs := make([]*profileHook, ranks)
	hooks := make([]vm.QuiesceHook, ranks)
	for r := range hooks {
		profs[r] = &profileHook{}
		hooks[r] = profs[r]
	}
	out := runWith(prog, cfg, extras{hooks: hooks})
	if out.Err != nil {
		return out, nil
	}
	// Every rank passes the same collective rounds, so the per-rank seq
	// sequences agree in length; take the min defensively.
	n := len(profs[0].sites)
	for _, p := range profs {
		n = min(n, len(p.sites))
	}
	cuts := make([]SiteCut, n)
	for s := range cuts {
		cut := SiteCut{Seq: uint64(s), Sites: make([]uint64, ranks)}
		for r, p := range profs {
			cut.Sites[r] = p.sites[s]
		}
		cuts[s] = cut
	}
	return out, cuts
}

// RunGoldenSiteClasses is Run for a fault-free golden execution that also
// records, per rank, the injection class of every dynamic site (one
// ir.Class byte per site, indexed by site number) and the static fim_inj
// ordinal the transform stamped on it (one int32 per site). It is the
// profiling pass behind stratified campaigns and per-site analytics: the
// class arrays map any planned (rank, site) fault to its instruction-class
// stratum, and the static arrays map it to its static injection site.
// Observation forces the full interpreter, so this run is slower than a
// plain golden run; the arrays are nil when the golden run fails.
func RunGoldenSiteClasses(prog *ir.Program, cfg RunConfig) (RunOutcome, [][]byte, [][]int32) {
	cfg = cfg.normalized()
	ranks := cfg.Ranks
	classes := make([][]byte, ranks)
	statics := make([][]int32, ranks)
	observers := make([]vm.SiteObserver, ranks)
	for r := range observers {
		r := r
		observers[r] = func(site uint64, static int32, class ir.Class) {
			// Sites arrive in order; append lands the entry at index site.
			classes[r] = append(classes[r], byte(class))
			statics[r] = append(statics[r], static)
		}
	}
	out := runWith(prog, cfg, extras{observers: observers})
	if out.Err != nil {
		return out, nil, nil
	}
	return out, classes, statics
}

// capturer coordinates park-and-capture across the ranks of one golden
// capture run.
type capturer struct {
	job  *mpi.Job
	dead <-chan struct{}

	want  map[uint64]*CampaignSnapshot
	ranks int

	mu      sync.Mutex
	parked  int
	release chan struct{}
}

func (c *capturer) bind(j *mpi.Job) {
	c.job = j
	c.dead = j.Done()
}

// park blocks the calling rank until every rank of the job has parked at
// the cut; the last parker captures the world state while it is the only
// runner, then releases everyone.
func (c *capturer) park(cs *CampaignSnapshot) {
	c.mu.Lock()
	c.parked++
	if c.parked == c.ranks {
		cs.world = c.job.SnapshotWorld(cs.world)
		cs.captured = true
		c.parked = 0
		close(c.release)
		c.release = make(chan struct{})
		c.mu.Unlock()
		return
	}
	ch := c.release
	c.mu.Unlock()
	select {
	case <-ch:
	case <-c.dead:
		// A sibling died before parking; the job is going down. Returning
		// lets this rank run into the abort flag and stop.
	}
}

// rankCapture is one rank's capture hook.
type rankCapture struct {
	c    *capturer
	rank int
}

func (h *rankCapture) Quiesce(v *vm.VM, seq uint64) {
	cs, ok := h.c.want[seq]
	if !ok {
		return
	}
	cs.vms[h.rank] = v.Snapshot(cs.vms[h.rank])
	if rec, ok := v.Tracer().(*trace.Recorder); ok {
		cs.recs[h.rank] = rec.Snapshot(cs.recs[h.rank])
	}
	cs.Cut.Sites[h.rank] = v.Sites()
	h.c.park(cs)
}

// RunGoldenCapture re-executes the golden run and captures full campaign
// snapshots at the given quiesce seqs (as reported by RunGoldenProfile).
// It returns the snapshots actually captured, ordered by seq; seqs past
// the end of the execution are silently dropped.
func RunGoldenCapture(prog *ir.Program, cfg RunConfig, seqs []uint64) (RunOutcome, []*CampaignSnapshot) {
	cfg = cfg.normalized()
	ranks := cfg.Ranks
	want := make(map[uint64]*CampaignSnapshot, len(seqs))
	snaps := make([]*CampaignSnapshot, 0, len(seqs))
	for _, s := range seqs {
		if _, dup := want[s]; dup {
			continue
		}
		// Pooled shells carry the backing buffers of retired captures;
		// vm/trace/mpi Snapshot() overwrite them in place.
		cs := cfg.Reuse.takeSnapshotShell(s, ranks)
		want[s] = cs
		snaps = append(snaps, cs)
	}
	c := &capturer{want: want, ranks: ranks, release: make(chan struct{})}
	hooks := make([]vm.QuiesceHook, ranks)
	for r := range hooks {
		hooks[r] = &rankCapture{c: c, rank: r}
	}
	out := runWith(prog, cfg, extras{hooks: hooks, onJob: c.bind})
	kept := snaps[:0]
	for _, cs := range snaps {
		if cs.captured {
			kept = append(kept, cs)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Cut.Seq < kept[j].Cut.Seq })
	return out, kept
}
