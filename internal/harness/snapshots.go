package harness

import (
	"sort"

	"repro/internal/core"
	"repro/internal/inject"
)

// Snapshot-fork scheduling: the fifth of the pack's artefacts (pack.go
// lists all five), and the only one a shard triggers per run rather than
// per pack. The pack's golden execution already yielded the quiesce-point
// profile (its cuts); Execution.Snapshots is the budget of cuts a shard may
// capture full state at. The shard pays at most one more fault-free
// execution (core.RunGoldenCapture, under the pack mutex on the pack's
// Reuse, and only for cuts the pack is still missing), and each experiment
// then forks from the best captured snapshot that precedes all of its
// planned faults, skipping the clean prefix, and may end at any later
// captured snapshot past all of them where every rank is back in the golden
// state, skipping a clean tail (core/exit.go). An experiment whose fault
// precedes every captured cut — every experiment, when the budget is 0 or
// the app has no quiesce points — runs from step 0. Snapshot placement is
// purely a performance strategy: results are byte-identical with any
// placement (including none), which is why Snapshots is excluded from the
// checkpoint fingerprint.

// snapSchedule holds a shard's captured snapshots, ordered by seq, and the
// pack's golden outcome. It is shared read-only across worker goroutines;
// forking restores copy out of the snapshot, never into it, and the
// golden-equivalence early exit only reads both.
type snapSchedule struct {
	snaps  []*core.CampaignSnapshot
	golden *core.RunOutcome
}

// Best returns the latest captured snapshot every planned fault lies at or
// after, or nil when the experiment must re-execute from step 0.
func (s *snapSchedule) Best(plan inject.Plan) *core.CampaignSnapshot {
	if s == nil {
		return nil
	}
	for i := len(s.snaps) - 1; i >= 0; i-- {
		if s.snaps[i].Usable(plan) {
			return s.snaps[i]
		}
	}
	return nil
}

// Tail returns the captured cuts at which an experiment with this plan,
// forked from snapshot from (nil: run from step 0), may end early: every
// cut later than the fork point and than each planned fault. Both
// conditions hold on a suffix of the seq-ordered cuts.
func (s *snapSchedule) Tail(plan inject.Plan, from *core.CampaignSnapshot) core.Tail {
	if s == nil {
		return core.Tail{}
	}
	i := sort.Search(len(s.snaps), func(i int) bool {
		cs := s.snaps[i]
		return (from == nil || cs.Cut.Seq > from.Cut.Seq) && cs.Cut.Past(plan)
	})
	if i == len(s.snaps) {
		return core.Tail{}
	}
	return core.Tail{Cuts: s.snaps[i:], Golden: s.golden}
}

// bestCutIndex returns the index of the latest cut usable for the plan, or
// -1 when even the earliest cut is past one of the faults. Cuts are in seq
// order and their per-rank site counts are monotone, so usability is a
// prefix property and binary search applies.
func bestCutIndex(cuts []core.SiteCut, plan inject.Plan) int {
	// sort.Search finds the first unusable cut; everything before it is
	// usable.
	n := sort.Search(len(cuts), func(i int) bool { return !cuts[i].Usable(plan) })
	return n - 1
}

// chooseSeqs picks at most budget snapshot seqs as quantiles of the
// per-experiment best-usable-cut distribution, so the captured cuts sit
// where the campaign's fault plans can actually use them. best holds one
// usable-cut index per experiment (unusable experiments excluded); it is
// sorted in place.
func chooseSeqs(cuts []core.SiteCut, best []int, budget int) []uint64 {
	if len(best) == 0 || budget <= 0 {
		return nil
	}
	sort.Ints(best)
	seqs := make([]uint64, 0, budget)
	seen := make(map[uint64]bool, budget)
	for k := 0; k < budget; k++ {
		// Upper-end-inclusive quantiles: k = budget-1 lands on the max, so
		// the experiments with the latest faults — the ones with the most
		// prefix to skip — always get a late cut.
		idx := ((k+1)*len(best) - 1) / budget
		seq := cuts[best[idx]].Seq
		if !seen[seq] {
			seen[seq] = true
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// schedule chooses cut seqs for the shard's pending experiments within the
// cfg.Snapshots capture budget and captures snapshots at the seqs the pack
// is still missing. It returns nil — every experiment runs from step 0 —
// when the budget is 0, the golden execution has no quiesce points, no
// pending plan can use any cut, or the capture run fails.
func (p *snapshotPack) schedule(cfg CampaignConfig, sites []uint64, pending []int) *snapSchedule {
	if cfg.Snapshots == 0 || len(p.cuts) == 0 {
		return nil // nothing to capture: skip planning every pending experiment
	}
	best := make([]int, 0, len(pending))
	for _, id := range pending {
		if b := bestCutIndex(p.cuts, planFor(cfg, id, sites)); b >= 0 {
			best = append(best, b)
		}
	}
	seqs := chooseSeqs(p.cuts, best, cfg.Snapshots)
	if len(seqs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var missing []uint64
	for _, s := range seqs {
		if p.snaps[s] == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		out, snaps := core.RunGoldenCapture(p.inst, core.RunConfig{
			Ranks: cfg.Params.Ranks, SampleEvery: cfg.SampleEvery, Reuse: p.reuse,
		}, missing)
		if out.Err != nil {
			return nil
		}
		for _, cs := range snaps {
			p.snaps[cs.Cut.Seq] = cs
		}
		p.trim(seqs)
	}
	sched := &snapSchedule{snaps: make([]*core.CampaignSnapshot, 0, len(seqs)), golden: &p.golden}
	for _, s := range seqs {
		if cs := p.snaps[s]; cs != nil {
			sched.snaps = append(sched.snaps, cs)
		}
	}
	if len(sched.snaps) == 0 {
		return nil
	}
	sort.Slice(sched.snaps, func(i, j int) bool {
		return sched.snaps[i].Cut.Seq < sched.snaps[j].Cut.Seq
	})
	return sched
}
