package harness

import (
	"fmt"
	"time"

	"repro/internal/classify"
	"repro/internal/obs"
)

// PhaseTrace is the timing record of one executed experiment, split into
// the four phases of the injection pipeline: drawing the fault plan
// (inject), rewinding state from a campaign snapshot (restore; zero on the
// re-execution path), the instrumented VM run (execute), and outcome
// classification plus the per-run model fit (classify). Total is the
// experiment's whole wall time (it can slightly exceed the phase sum:
// gate waits and scheduling are not attributed to any phase).
//
// Tracing is off unless CampaignConfig.Timings or OnPhase is set; the
// disabled cost is a couple of nil checks per experiment.
type PhaseTrace struct {
	// ID is the experiment's campaign-wide ID.
	ID      int
	Outcome classify.Outcome
	Inject  time.Duration
	// Restore is the snapshot-fork rewind time; zero for experiments that
	// re-executed from step 0.
	Restore time.Duration
	Execute time.Duration
	// Classify covers classification and model fitting.
	Classify time.Duration
	Total    time.Duration
	// Forked reports whether the experiment forked from a campaign
	// snapshot; the restore-cost fields below are meaningful only then.
	Forked bool
	// RestoreBytes is the number of bytes the snapshot restore actually
	// copied. With delta restore this is proportional to the state the
	// fork's previous occupant dirtied, not to golden-state size.
	RestoreBytes int64
	// RestoreFrac is the fraction of memory blocks the restore rewrote
	// (1.0 on the full-copy path).
	RestoreFrac float64
	// BackedBytes is the address-space backing the experiment's ranks held
	// between them when it ended (core.RunOutcome.BackedBytes), forked or
	// not: the answer to "is the small path being taken?" for memory.
	BackedBytes int64
	// Deadlock reports that the experiment ended because every live rank
	// was blocked in MPI with nothing able to complete, detected in logical
	// time; Timeout that a blocking MPI call instead ran into the wall-clock
	// safety timeout, which no experiment should (a count above zero is a
	// framework bug, and the answer to "is the fast path being taken?").
	// Both classify as Crashed; neither is part of the results.
	Deadlock, Timeout bool
	// Exited reports that the experiment ended at a golden-equal cut
	// instead of executing the golden tail, and SkippedCycles the tail
	// cycles not executed, summed over ranks (core.RunOutcome): the answer
	// to "is the early exit being taken?".
	Exited        bool
	SkippedCycles uint64
}

// CampaignTimings aggregates PhaseTraces into mergeable fixed-bucket
// histograms: total latency per outcome class plus one histogram per
// phase. Shard runs stamp their timings into the PartialResult, and
// PartialResult.Merge folds them together exactly (see obs.Histogram) —
// the same carry-and-merge discipline as stats.Moments, applied to
// distributions. Timings never influence results and are excluded from
// the campaign fingerprint.
type CampaignTimings struct {
	// ByOutcome holds total experiment latency per outcome class,
	// indexed by classify.Outcome.
	ByOutcome [classify.NumOutcomes]*obs.Histogram `json:"byOutcome"`
	Inject    *obs.Histogram                       `json:"inject"`
	// Restore records the snapshot-fork rewind phase. Every executed
	// experiment is observed (zero for re-execution-path runs), so the
	// phase counts stay symmetric across modes; partials from older
	// builds carry a nil Restore, which Merge treats as empty.
	Restore  *obs.Histogram `json:"restore,omitempty"`
	Execute  *obs.Histogram `json:"execute"`
	Classify *obs.Histogram `json:"classify"`
	// RestoreFrac records the dirty-block fraction of forked restores
	// (delta restores rewrite only the blocks dirtied since the last
	// fork; full copies observe 1.0). Unlike Restore, only forked
	// experiments are observed — its count doubles as the fork count.
	// Partials from older builds carry nil, which Merge treats as empty.
	RestoreFrac *obs.Histogram `json:"restoreFrac,omitempty"`
	// RestoreBytes records the bytes copied per forked restore, same
	// observation rule as RestoreFrac.
	RestoreBytes *obs.Histogram `json:"restoreBytes,omitempty"`
	// Skipped records the golden-tail cycles each experiment that ended at
	// a golden-equal cut did not execute (power-of-four buckets, as for
	// sizes). Only such experiments are observed, so its count is the exit
	// count, and it merges back from shards like every histogram here.
	Skipped *obs.Histogram `json:"skipped,omitempty"`
}

// NewCampaignTimings returns timings over the stack's standard latency
// buckets. Every campaign uses the same fixed layout so any two
// CampaignTimings merge.
func NewCampaignTimings() *CampaignTimings {
	t := &CampaignTimings{
		Inject:       obs.NewHistogram(obs.LatencyBuckets()),
		Restore:      obs.NewHistogram(obs.LatencyBuckets()),
		Execute:      obs.NewHistogram(obs.LatencyBuckets()),
		Classify:     obs.NewHistogram(obs.LatencyBuckets()),
		RestoreFrac:  obs.NewHistogram(obs.FractionBuckets()),
		RestoreBytes: obs.NewHistogram(obs.SizeBuckets()),
		Skipped:      obs.NewHistogram(obs.SizeBuckets()),
	}
	for i := range t.ByOutcome {
		t.ByOutcome[i] = obs.NewHistogram(obs.LatencyBuckets())
	}
	return t
}

// Observe folds one experiment's phase timings in. Safe on a nil
// receiver and for concurrent callers (worker goroutines observe
// directly).
func (t *CampaignTimings) Observe(tr PhaseTrace) {
	if t == nil {
		return
	}
	if o := int(tr.Outcome); o >= 0 && o < classify.NumOutcomes {
		t.ByOutcome[o].ObserveDuration(tr.Total)
	}
	t.Inject.ObserveDuration(tr.Inject)
	t.Restore.ObserveDuration(tr.Restore)
	t.Execute.ObserveDuration(tr.Execute)
	t.Classify.ObserveDuration(tr.Classify)
	if tr.Forked {
		t.RestoreFrac.Observe(tr.RestoreFrac)
		t.RestoreBytes.Observe(float64(tr.RestoreBytes))
	}
	if tr.Exited {
		t.Skipped.Observe(float64(tr.SkippedCycles))
	}
}

// Exits returns the number of observed experiments that ended at a
// golden-equal cut.
func (t *CampaignTimings) Exits() int {
	if t == nil {
		return 0
	}
	return int(t.Skipped.Count())
}

// Count returns the number of experiments observed (via the phase
// histograms, which see every trace regardless of outcome).
func (t *CampaignTimings) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.Execute.Count()
}

// Merge folds other into t. Both sides must use the same bucket layout;
// a nil other is a no-op.
func (t *CampaignTimings) Merge(other *CampaignTimings) error {
	if other == nil {
		return nil
	}
	if t == nil {
		return fmt.Errorf("harness: merge timings into nil")
	}
	for i := range t.ByOutcome {
		if t.ByOutcome[i] == nil {
			t.ByOutcome[i] = obs.NewHistogram(obs.LatencyBuckets())
		}
		if err := t.ByOutcome[i].Merge(other.ByOutcome[i]); err != nil {
			return fmt.Errorf("harness: merge timings (outcome %s): %w", classify.Outcome(i), err)
		}
	}
	for _, m := range []struct {
		dst     **obs.Histogram
		src     *obs.Histogram
		buckets func() []float64
		n       string
	}{
		{&t.Inject, other.Inject, obs.LatencyBuckets, "inject"},
		{&t.Restore, other.Restore, obs.LatencyBuckets, "restore"},
		{&t.Execute, other.Execute, obs.LatencyBuckets, "execute"},
		{&t.Classify, other.Classify, obs.LatencyBuckets, "classify"},
		{&t.RestoreFrac, other.RestoreFrac, obs.FractionBuckets, "restoreFrac"},
		{&t.RestoreBytes, other.RestoreBytes, obs.SizeBuckets, "restoreBytes"},
		{&t.Skipped, other.Skipped, obs.SizeBuckets, "skipped"},
	} {
		if *m.dst == nil {
			*m.dst = obs.NewHistogram(m.buckets())
		}
		if err := (*m.dst).Merge(m.src); err != nil {
			return fmt.Errorf("harness: merge timings (%s): %w", m.n, err)
		}
	}
	return nil
}

// Clone returns an independent deep copy (nil in, nil out).
func (t *CampaignTimings) Clone() *CampaignTimings {
	if t == nil {
		return nil
	}
	c := NewCampaignTimings()
	if err := c.Merge(t); err != nil {
		// Same fixed layout on both sides by construction.
		panic(err)
	}
	return c
}
