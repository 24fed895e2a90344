package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Snapshot-fork orchestration. A campaign's golden execution runs with a
// capture hook that records full job state, and the per-rank dynamic site
// counts reached, at the quiesce points it is asked for
// (RunGoldenCaptureSites: reference outcome, cut profile, captures and,
// when asked, the dyn→static site map from one run).
// RunGoldenProfile is the same run recording only the site counts.
// Experiments whose faults all lie at or after a captured cut then fork
// from it via RunResumed instead of re-executing the clean prefix, and
// may end at a later one instead of executing a golden tail (exit.go).
//
// Multi-rank capture is one use of the cut rendezvous (cutVote below):
// quiesce points fire on every rank at the same collective round, each rank
// snapshots its own VM and recorder at the hook (no cross-goroutine reads)
// and votes yes, which parks it; the last voter is the only runner left,
// captures the message-passing world, and releases the others. The
// golden-equivalence early exit (exit.go) is the other: each rank votes
// whether it is golden-equal, and the last of an all-yes vote compares the
// world instead of capturing it. A rank that dies instead of voting kills
// the job, whose done channel unblocks any parked sibling.

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

// Past reports whether every fault of the plan lies before the cut, i.e.
// whether the golden run had executed each planned site by then, so a run
// with this plan may end at a snapshot taken there.
func (c SiteCut) Past(plan inject.Plan) bool {
	for _, f := range plan.Faults {
		if f.Rank < 0 || f.Rank >= len(c.Sites) || c.Sites[f.Rank] <= f.Site {
			return false
		}
	}
	return true
}

// CampaignSnapshot is the full state of a job at one quiesce cut: every
// rank's VM and trace recorder plus the message-passing world. One
// snapshot forks any number of experiments.
type CampaignSnapshot struct {
	Cut   SiteCut
	vms   []*vm.Snapshot
	recs  []*trace.RecorderSnap
	world *mpi.WorldSnap
	// ops[r] is the number of MPI calls rank r had made at the cut: where
	// its replay of the golden Traffic starts (ghost.go).
	ops      []int
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

func (p *profileHook) Quiesce(v *vm.VM, seq uint64) bool {
	p.sites = append(p.sites, v.Sites())
	return false
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

// cutVote is the rendezvous of one run's ranks at its cuts: the quiesce
// points, in seq order, that cuts[i] was or is to be captured at. Every
// rank arriving at a cut votes. A "no" decides the cut: the rank goes on at
// once and so does every rank parked there or still to vote. A "yes" parks
// the rank until every rank has voted yes, or one no. The last of an
// all-yes vote settles the cut. That voter is the only rank still running,
// and parking cannot stall anyone: no rank runs MPI between a collective
// and its quiesce hook, and every collective is a full rendezvous, so each
// rank still to vote has entered the collective and reaches the hook
// without waiting on a parked one. So the settling voter may read the
// job's world: a capture run captures it, an experiment compares it with
// the golden capture. Waiting voters also unblock when the job dies, since
// a dead rank never votes. The verdict is a function of the ranks' states
// at the cut, so which rank happens to settle it does not matter.
type cutVote struct {
	job  *mpi.Job
	dead <-chan struct{}
	cuts []*CampaignSnapshot
	// capture marks a golden capture run: every vote is yes and settling
	// captures the world. Otherwise ranks vote GoldenEqual and settling
	// compares.
	capture bool
	hooks   []rankCut
	// traffic is the golden run's MPI traffic, which a yes-voter whose cut
	// does not end the run replays as a ghost (ghost.go); nil disables
	// ghosts. aborts holds a ghost's abort flag.
	traffic Traffic
	aborts  *abortFlags

	mu     sync.Mutex
	rounds []cutRound
	// exited records that an experiment ended at one of the cuts.
	exited bool
}

// cutRound is the tally of one cut.
type cutRound struct {
	votes   int
	no      bool
	verdict bool
	// release is made by the first yes-voter that has to wait and closed by
	// the first no or the settling vote.
	release chan struct{}
}

// reset readies the rendezvous for one run of the bundle's job over cuts,
// reusing the previous run's buffers.
func (z *cutVote) reset(ru *Reuse, cuts []*CampaignSnapshot, capture bool, traffic Traffic) {
	z.job, z.dead, z.cuts, z.capture, z.exited = ru.job, ru.job.Done(), cuts, capture, false
	z.traffic, z.aborts = traffic, &ru.aborts
	z.rounds = slices.Grow(z.rounds[:0], len(cuts))[:len(cuts)]
	clear(z.rounds)
	ranks := len(ru.links)
	z.hooks = slices.Grow(z.hooks[:0], ranks)[:ranks]
	for r := range z.hooks {
		z.hooks[r] = rankCut{vote: z, rank: r, link: &ru.links[r]}
	}
}

// vote casts one rank's vote at cut i and returns the cut's verdict: false
// at once when the cut already has a "no" or this is one (which also
// releases the parked voters), otherwise once every rank has voted (or
// false when the job dies first).
func (z *cutVote) vote(i int, yes bool) bool {
	z.mu.Lock()
	rd := &z.rounds[i]
	rd.votes++
	switch {
	case rd.no:
		z.mu.Unlock()
		return false
	case !yes:
		rd.no = true
		if rd.release != nil {
			close(rd.release)
		}
		z.mu.Unlock()
		return false
	case rd.votes == len(z.hooks):
		rd.verdict = z.settle(i)
		if rd.release != nil {
			close(rd.release)
		}
		z.mu.Unlock()
		return rd.verdict
	}
	if rd.release == nil {
		rd.release = make(chan struct{})
	}
	ch := rd.release
	z.mu.Unlock()
	select {
	case <-ch:
		return rd.verdict
	case <-z.dead:
		// A sibling died before voting; the job is going down. Returning
		// lets this rank run into the abort flag and stop.
		return false
	}
}

// settle is the last vote of an all-yes cut, made while every other rank
// is parked: capture the world, or compare it with the capture and, when it
// matches too, end the run here.
func (z *cutVote) settle(i int) bool {
	cs := z.cuts[i]
	if z.capture {
		cs.world = z.job.SnapshotWorld(cs.world)
		cs.captured = true
		return true
	}
	if !z.job.WorldEqual(cs.world) {
		return false
	}
	z.exited = true
	goldenExits.Add(1)
	return true
}

// rankCut is one rank's hook at the cuts of a cutVote.
type rankCut struct {
	vote *cutVote
	rank int
	link *rankLink
	// next is the index of the first cut this rank has not reached, or
	// has voted at as a ghost.
	next int
	// ended marks a rank that ended at the end of its golden log; resumes
	// counts its ghosts that resumed.
	ended   bool
	resumes int
}

func (h *rankCut) Quiesce(v *vm.VM, seq uint64) bool {
	z := h.vote
	for h.next < len(z.cuts) && z.cuts[h.next].Cut.Seq < seq {
		h.next++
	}
	if h.next == len(z.cuts) || z.cuts[h.next].Cut.Seq != seq {
		return false
	}
	i := h.next
	h.next++
	cs := z.cuts[i]
	if !z.capture {
		// A yes-voter whose cut does not end the run replays its golden
		// traffic instead of executing, and continues here only if it
		// resumes.
		yes := v.GoldenEqual(cs.vms[h.rank])
		return z.vote(i, yes) || yes && z.traffic != nil && h.ghost(i)
	}
	cs.vms[h.rank] = v.Snapshot(cs.vms[h.rank])
	if rec, ok := v.Tracer().(*trace.Recorder); ok {
		cs.recs[h.rank] = rec.Snapshot(cs.recs[h.rank])
	}
	cs.Cut.Sites[h.rank] = v.Sites()
	cs.ops[h.rank] = len(h.link.log.ops)
	z.vote(i, true)
	return false
}

// SiteRuns is a fault-free execution's dyn→static site map: per rank, the
// vm.SiteRun runs that cover its dynamic sites in order.
type SiteRuns [][]vm.SiteRun

// Static returns the static fim_inj ordinal of rank's dynamic site, or
// false when the map does not cover that site.
func (m SiteRuns) Static(rank int, site uint64) (int32, bool) {
	if rank < 0 || rank >= len(m) {
		return 0, false
	}
	runs := m[rank]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Site > site }) - 1
	if i < 0 || site-runs[i].Site >= uint64(runs[i].N) {
		return 0, false
	}
	return runs[i].Static + int32(site-runs[i].Site), true
}

// RunGoldenCapture is RunGoldenCaptureSites without the site map and the
// traffic.
func RunGoldenCapture(prog *ir.Program, cfg RunConfig, seqs []uint64) (RunOutcome, []*CampaignSnapshot) {
	out, snaps, _, _ := RunGoldenCaptureSites(prog, cfg, seqs, false)
	return out, snaps
}

// RunGoldenCaptureSites is Run for a fault-free golden execution that also
// captures full campaign snapshots at the given quiesce seqs (counted from
// 0, as vm.QuiesceHook numbers them), records every rank's MPI traffic,
// which ghosts replay (ghost.go), and, when sites is set, records the
// dyn→static site map, which stratified and per-site campaigns attribute
// faults through. It returns the snapshots actually captured, ordered by
// seq; seqs past the end of the execution are silently dropped. The map
// and the traffic are nil when the golden run fails, and the map when not
// asked for.
func RunGoldenCaptureSites(prog *ir.Program, cfg RunConfig, seqs []uint64, sites bool) (RunOutcome, []*CampaignSnapshot, SiteRuns, Traffic) {
	cfg = cfg.normalized()
	snaps := make([]*CampaignSnapshot, 0, len(seqs))
	for _, s := range seqs {
		if slices.ContainsFunc(snaps, func(cs *CampaignSnapshot) bool { return cs.Cut.Seq == s }) {
			continue
		}
		snaps = append(snaps, &CampaignSnapshot{
			Cut:  SiteCut{Seq: s, Sites: make([]uint64, cfg.Ranks)},
			vms:  make([]*vm.Snapshot, cfg.Ranks),
			recs: make([]*trace.RecorderSnap, cfg.Ranks),
			ops:  make([]int, cfg.Ranks),
		})
	}
	slices.SortFunc(snaps, func(a, b *CampaignSnapshot) int { return cmp.Compare(a.Cut.Seq, b.Cut.Seq) })
	var runs SiteRuns
	if sites {
		runs = make(SiteRuns, cfg.Ranks)
	}
	traffic := make(Traffic, cfg.Ranks)
	out := runWith(prog, cfg, extras{capture: snaps, sites: runs, traffic: traffic})
	kept := snaps[:0]
	for _, cs := range snaps {
		if cs.captured {
			kept = append(kept, cs)
		}
	}
	if out.Err != nil {
		runs, traffic = nil, nil
	}
	for r := range traffic {
		// Sized exactly: the log lives as long as its pack.
		t := &traffic[r]
		t.ops, t.bytes, t.words = slices.Clone(t.ops), slices.Clone(t.bytes), slices.Clone(t.words)
	}
	return out, kept, runs, traffic
}
