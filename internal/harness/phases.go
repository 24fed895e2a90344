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
	// RestoreBytes is the number of bytes the snapshot restore copied:
	// the whole snapshot of every rank.
	RestoreBytes int64
	// RestoreFrac is 1 on a forked experiment and 0 otherwise, since every
	// restore rewrites the whole snapshot. It is kept only because the
	// benchmark in bench/ reads it.
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
	// RestoreBytes records the bytes copied per forked restore. Unlike
	// Restore, only forked experiments are observed, so its count is the
	// fork count. Partials from older builds may carry nil, which Merge
	// treats as empty, and a restoreFrac histogram, which decoding drops.
	RestoreBytes *obs.Histogram `json:"restoreBytes,omitempty"`
	// Skipped records the golden-tail cycles each experiment that ended at
	// a golden-equal cut did not execute (power-of-four buckets, as for
	// sizes). Only such experiments are observed, so its count is the exit
	// count, and it merges back from shards like every histogram here.
	Skipped *obs.Histogram `json:"skipped,omitempty"`
}

// TimingHist is one histogram of CampaignTimings: its JSON name, the
// outcome class a byOutcome histogram observes, and its bucket layout.
type TimingHist struct {
	Name    string
	Outcome classify.Outcome
	Buckets []float64
	field   func(*CampaignTimings) **obs.Histogram
}

func (h TimingHist) String() string {
	if h.Name == "byOutcome" {
		return "outcome " + h.Outcome.String()
	}
	return h.Name
}

// timingHists lists every CampaignTimings histogram once; construction,
// Merge and Clone iterate it.
var timingHists = func() []TimingHist {
	var hs []TimingHist
	for i := 0; i < classify.NumOutcomes; i++ {
		hs = append(hs, TimingHist{"byOutcome", classify.Outcome(i), obs.LatencyBuckets(),
			func(t *CampaignTimings) **obs.Histogram { return &t.ByOutcome[i] }})
	}
	return append(hs,
		TimingHist{"inject", 0, obs.LatencyBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.Inject }},
		TimingHist{"restore", 0, obs.LatencyBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.Restore }},
		TimingHist{"execute", 0, obs.LatencyBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.Execute }},
		TimingHist{"classify", 0, obs.LatencyBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.Classify }},
		TimingHist{"restoreBytes", 0, obs.SizeBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.RestoreBytes }},
		TimingHist{"skipped", 0, obs.SizeBuckets(), func(t *CampaignTimings) **obs.Histogram { return &t.Skipped }},
	)
}()

// NewCampaignTimings returns timings over the stack's standard buckets.
// Every campaign uses the same fixed layout so any two CampaignTimings
// merge.
func NewCampaignTimings() *CampaignTimings {
	return NewCampaignTimingsFrom(func(h TimingHist) *obs.Histogram { return obs.NewHistogram(h.Buckets) })
}

// NewCampaignTimingsFrom returns timings whose histograms newHist
// supplies, one call per TimingHist, such as a registry's series. Each
// must have h's buckets.
func NewCampaignTimingsFrom(newHist func(h TimingHist) *obs.Histogram) *CampaignTimings {
	t := &CampaignTimings{}
	for _, h := range timingHists {
		*h.field(t) = newHist(h)
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
	for _, h := range timingHists {
		dst := h.field(t)
		if *dst == nil {
			*dst = obs.NewHistogram(h.Buckets)
		}
		if err := (*dst).Merge(*h.field(other)); err != nil {
			return fmt.Errorf("harness: merge timings (%s): %w", h, err)
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
