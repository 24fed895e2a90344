// Package trace records fault-propagation observables during a run: the
// corrupted-memory-locations time series of each rank (paper Fig. 7), and
// the job-level spread of contamination across ranks (paper Fig. 8).
//
// All retained observables are expressed in rank-local application cycles.
// The ranks of a lockstep MPI job advance in near-unison, so local cycles
// are comparable across ranks — and unlike a shared wall-clock proxy they
// are a pure function of the program and the fault plan, never of
// goroutine scheduling. That determinism is what lets campaign results be
// checkpointed and replayed byte-for-byte.
package trace

import (
	"sort"
	"sync"
)

// Point is one CML sample of one rank.
type Point struct {
	Cycles int64 // rank-local application cycles
	CML    int   // corrupted memory locations at that moment
}

// TickPoint marks an application timestep boundary.
type TickPoint struct {
	Cycles int64
	Tick   int64
}

// Recorder observes one rank's VM. It implements vm.Tracer. Not safe for
// concurrent use; each rank owns one.
type Recorder struct {
	// SampleEvery subsamples CML changes: a new point is retained only
	// when at least this many local cycles have passed since the last
	// retained point (transitions from zero are always retained). Zero
	// retains every change.
	SampleEvery uint64

	points []Point
	ticks  []TickPoint

	firstContam       int64
	hasFirstContam    bool
	lastSampledCycles uint64
	lastCML           int
	maxCML            int
}

// Reset readies a pooled Recorder for a new run. The retained series
// escape into run results, so Reset does not reuse their backing: it
// allocates fresh slices sized by the caller's capacity hints (typically
// the previous run's lengths), replacing the append-grow churn of a cold
// recorder with one right-sized allocation each.
func (r *Recorder) Reset(sampleEvery uint64, pointsCap, ticksCap int) {
	*r = Recorder{
		SampleEvery: sampleEvery,
		points:      make([]Point, 0, pointsCap),
		ticks:       make([]TickPoint, 0, ticksCap),
	}
}

// OnCMLChange implements vm.Tracer.
func (r *Recorder) OnCMLChange(localCycles uint64, cml int) {
	if cml > r.maxCML {
		r.maxCML = cml
	}
	becameContaminated := r.lastCML == 0 && cml > 0
	if becameContaminated && !r.hasFirstContam {
		r.firstContam = int64(localCycles)
		r.hasFirstContam = true
	}
	r.lastCML = cml
	if !becameContaminated && r.SampleEvery > 0 &&
		localCycles-r.lastSampledCycles < r.SampleEvery && len(r.points) > 0 {
		return
	}
	r.lastSampledCycles = localCycles
	r.points = append(r.points, Point{Cycles: int64(localCycles), CML: cml})
}

// OnTick implements vm.Tracer.
func (r *Recorder) OnTick(localCycles uint64, tick int64) {
	r.ticks = append(r.ticks, TickPoint{Cycles: int64(localCycles), Tick: tick})
}

// Finish appends a final sample so the series extends to the end of the run.
func (r *Recorder) Finish(localCycles uint64, cml int) {
	if cml > r.maxCML {
		r.maxCML = cml
	}
	r.lastCML = cml
	r.points = append(r.points, Point{Cycles: int64(localCycles), CML: cml})
}

// RecorderSnap is a deep copy of a Recorder's state at one moment of a
// run, so a snapshot-forked execution resumes with exactly the trace a
// from-scratch run would have accumulated by that point.
type RecorderSnap struct {
	sampleEvery       uint64
	points            []Point
	ticks             []TickPoint
	firstContam       int64
	hasFirstContam    bool
	lastSampledCycles uint64
	lastCML           int
	maxCML            int
}

// Snapshot captures the recorder into s (reusing s's backing when possible;
// nil allocates). Later recording does not alias the snapshot.
func (r *Recorder) Snapshot(s *RecorderSnap) *RecorderSnap {
	if s == nil {
		s = &RecorderSnap{}
	}
	s.sampleEvery = r.SampleEvery
	s.points = append(s.points[:0], r.points...)
	s.ticks = append(s.ticks[:0], r.ticks...)
	s.firstContam = r.firstContam
	s.hasFirstContam = r.hasFirstContam
	s.lastSampledCycles = r.lastSampledCycles
	s.lastCML = r.lastCML
	s.maxCML = r.maxCML
	return s
}

// RestoreSnap rewinds the recorder to the snapshotted state. Like Reset, it
// gives the retained series fresh backing — they escape into run results —
// sized by the caller's capacity hints (at least the snapshot lengths are
// always reserved). The snapshot is reusable across any number of restores.
func (r *Recorder) RestoreSnap(s *RecorderSnap, pointsCap, ticksCap int) {
	r.SampleEvery = s.sampleEvery
	r.points = append(make([]Point, 0, max(pointsCap, len(s.points))), s.points...)
	r.ticks = append(make([]TickPoint, 0, max(ticksCap, len(s.ticks))), s.ticks...)
	r.firstContam = s.firstContam
	r.hasFirstContam = s.hasFirstContam
	r.lastSampledCycles = s.lastSampledCycles
	r.lastCML = s.lastCML
	r.maxCML = s.maxCML
}

// Points returns the retained CML series.
func (r *Recorder) Points() []Point { return r.points }

// Ticks returns the timestep marks.
func (r *Recorder) Ticks() []TickPoint { return r.ticks }

// MaxCML returns the peak CML observed.
func (r *Recorder) MaxCML() int { return r.maxCML }

// FirstContamination returns the rank-local cycle count at which the rank
// first became contaminated, and whether it ever did.
func (r *Recorder) FirstContamination() (int64, bool) {
	return r.firstContam, r.hasFirstContam
}

// RankSpread aggregates per-rank first-contamination times (rank-local
// cycles) into the corrupted-ranks-over-time series of paper Fig. 8.
type RankSpread struct {
	mu    sync.Mutex
	times []int64
}

// Note records that a rank became contaminated at rank-local cycle t.
// Safe for concurrent use.
func (s *RankSpread) Note(t int64) {
	s.mu.Lock()
	s.times = append(s.times, t)
	s.mu.Unlock()
}

// SpreadPoint is one step of the corrupted-rank-count series.
type SpreadPoint struct {
	Time  int64
	Ranks int
}

// Series returns the cumulative corrupted-rank counts in time order.
func (s *RankSpread) Series() []SpreadPoint {
	s.mu.Lock()
	ts := append([]int64(nil), s.times...)
	s.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := make([]SpreadPoint, len(ts))
	for i, t := range ts {
		out[i] = SpreadPoint{Time: t, Ranks: i + 1}
	}
	return out
}

// Count returns how many ranks became contaminated.
func (s *RankSpread) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.times)
}
