package harness

import (
	"sort"

	"repro/internal/core"
	"repro/internal/inject"
)

// Snapshot-fork scheduling over the pack's captures (the third of the
// artefacts pack.go lists). The pack's one golden execution captured full
// state at every quiesce cut, up to maxCuts; with Execution.Snapshots
// positive a campaign schedules over all of them. Each experiment then
// forks from the latest captured cut that precedes all of its planned
// faults, skipping the clean prefix, and may end at any later captured cut
// past all of them where every rank is back in the golden state, skipping
// a clean tail (core/exit.go); a single rank back in it replays the golden
// traffic instead of executing (core/ghost.go). An experiment whose fault
// precedes every captured cut — every experiment, when Snapshots is 0 or
// the app has no quiesce points — runs from step 0. Forking is purely a performance strategy: results are
// byte-identical with it or without, which is why Snapshots is excluded
// from the checkpoint fingerprint.

// snapSchedule holds the pack's captured snapshots, ordered by seq, its
// golden outcome and its traffic. It is shared read-only across worker
// goroutines; forking restores copy out of the snapshot, never into it, and
// the golden-equivalence early exits only read all three.
type snapSchedule struct {
	snaps   []*core.CampaignSnapshot
	golden  *core.RunOutcome
	traffic core.Traffic
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
	return core.Tail{Cuts: s.snaps[i:], Golden: s.golden, Traffic: s.traffic}
}

// schedule returns the campaign's snapshot-fork schedule: the pack's
// captured cuts, or nil — every experiment runs from step 0 to its end —
// when cfg.Snapshots is 0 or the golden execution has no quiesce points.
func (p *snapshotPack) schedule(cfg CampaignConfig) *snapSchedule {
	if cfg.Snapshots == 0 || len(p.snaps) == 0 {
		return nil
	}
	return &snapSchedule{snaps: p.snaps, golden: &p.golden, traffic: p.traffic}
}
