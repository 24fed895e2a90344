package trace

import (
	"sync"
	"testing"
)

func TestRecorderRetainsChanges(t *testing.T) {
	var r Recorder
	r.OnCMLChange(10, 1)
	r.OnCMLChange(20, 2)
	r.OnCMLChange(30, 0)
	r.Finish(40, 0)
	pts := r.Points()
	if len(pts) != 4 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0] != (Point{Cycles: 10, CML: 1}) {
		t.Errorf("first point = %+v", pts[0])
	}
	if r.MaxCML() != 2 {
		t.Errorf("max = %d, want 2", r.MaxCML())
	}
	// First contamination is reported in rank-local cycles (the first
	// argument), never the scheduling-dependent shared clock.
	if ft, ok := r.FirstContamination(); !ok || ft != 10 {
		t.Errorf("first contamination = %d %v, want 10", ft, ok)
	}
}

func TestRecorderSubsampling(t *testing.T) {
	r := Recorder{SampleEvery: 100}
	for c := uint64(0); c < 1000; c += 10 {
		r.OnCMLChange(c, int(c))
	}
	pts := r.Points()
	if len(pts) < 5 || len(pts) > 15 {
		t.Errorf("retained %d points, want ~10", len(pts))
	}
	// Max is tracked exactly even when subsampled.
	if r.MaxCML() != 990 {
		t.Errorf("max = %d, want 990", r.MaxCML())
	}
}

func TestRecorderZeroTransitionAlwaysRetained(t *testing.T) {
	r := Recorder{SampleEvery: 1 << 40}
	r.OnCMLChange(5, 3) // first contamination: retained
	r.OnCMLChange(6, 0) // cleansed: subsampled away
	r.OnCMLChange(7, 1) // re-contaminated from zero: retained
	pts := r.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v, want 2 retained", pts)
	}
	if ft, ok := r.FirstContamination(); !ok || ft != 5 {
		t.Errorf("first contamination = %d %v, want 5", ft, ok)
	}
}

func TestRecorderTicks(t *testing.T) {
	var r Recorder
	r.OnTick(100, 1)
	r.OnTick(200, 2)
	if n := len(r.Ticks()); n != 2 {
		t.Errorf("ticks = %d", n)
	}
}

// TestRecorderRestoreSnapOverCapacity pins the capacity edge of the
// snapshot round-trip: restoring a snapshot whose series are longer than
// the caller's capacity hints must keep every snapshotted point (the hint
// is a floor, not a cap) and must give the recorder fresh backing — later
// recording may never alias into the snapshot, which stays reusable
// across restores.
func TestRecorderRestoreSnapOverCapacity(t *testing.T) {
	var r Recorder
	r.Reset(0, 4, 4)
	for c := uint64(1); c <= 32; c++ {
		r.OnCMLChange(c, int(c))
		r.OnTick(c, int64(c))
	}
	snap := r.Snapshot(nil)

	// Restore with capacity hints far below the snapshot lengths.
	r.RestoreSnap(snap, 2, 2)
	if got := len(r.Points()); got != 32 {
		t.Fatalf("restored %d points, want 32 (over-capacity restore truncated)", got)
	}
	if got := len(r.Ticks()); got != 32 {
		t.Fatalf("restored %d ticks, want 32", got)
	}
	if ft, ok := r.FirstContamination(); !ok || ft != 1 {
		t.Errorf("first contamination after restore = %d %v, want 1", ft, ok)
	}

	// Recording past the restored length must not write into the
	// snapshot's backing.
	r.OnCMLChange(100, 7)
	r.Finish(200, 7)
	if got := len(snap.points); got != 32 {
		t.Fatalf("snapshot grew to %d points after post-restore recording", got)
	}
	for i, p := range snap.points {
		if want := (Point{Cycles: int64(i + 1), CML: i + 1}); p != want {
			t.Fatalf("snapshot point %d = %+v, want %+v (aliased by restored recorder)", i, p, want)
		}
	}

	// The same snapshot restores again, byte-identically.
	var r2 Recorder
	r2.RestoreSnap(snap, 0, 0)
	if len(r2.Points()) != 32 || r2.MaxCML() != 32 {
		t.Errorf("second restore: %d points, max %d, want 32/32", len(r2.Points()), r2.MaxCML())
	}
}

// TestRecorderFirstContaminationSubsampled pins that first-contamination
// tracking is exact under subsampling: the zero→nonzero transition is
// always retained and stamped, and cleanse/re-contaminate churn inside a
// sampling window neither loses the original timestamp nor re-stamps it.
func TestRecorderFirstContaminationSubsampled(t *testing.T) {
	r := Recorder{SampleEvery: 1000}
	r.OnCMLChange(10, 0) // still clean: no contamination recorded
	if _, ok := r.FirstContamination(); ok {
		t.Fatal("contamination reported before any nonzero CML")
	}
	r.OnCMLChange(42, 3) // first contamination, mid-window
	r.OnCMLChange(50, 0) // cleansed within the window
	r.OnCMLChange(60, 5) // re-contaminated: must not re-stamp
	r.OnCMLChange(70, 9) // same window: subsampled away
	if ft, ok := r.FirstContamination(); !ok || ft != 42 {
		t.Errorf("first contamination = %d %v, want 42", ft, ok)
	}
	if r.MaxCML() != 9 {
		t.Errorf("max = %d, want 9 (tracked exactly despite subsampling)", r.MaxCML())
	}
}

// TestRankSpreadSingleRank pins the one-rank degenerate series: a single
// contamination yields exactly one cumulative step.
func TestRankSpreadSingleRank(t *testing.T) {
	var s RankSpread
	s.Note(500)
	series := s.Series()
	if len(series) != 1 || s.Count() != 1 {
		t.Fatalf("series = %v, want one point", series)
	}
	if series[0] != (SpreadPoint{Time: 500, Ranks: 1}) {
		t.Errorf("series[0] = %+v, want {500 1}", series[0])
	}
}

func TestRankSpreadSeries(t *testing.T) {
	var s RankSpread
	var wg sync.WaitGroup
	for _, tm := range []int64{300, 100, 200} {
		wg.Add(1)
		go func(tm int64) {
			defer wg.Done()
			s.Note(tm)
		}(tm)
	}
	wg.Wait()
	series := s.Series()
	if len(series) != 3 || s.Count() != 3 {
		t.Fatalf("series = %v", series)
	}
	want := []SpreadPoint{{100, 1}, {200, 2}, {300, 3}}
	for i, p := range series {
		if p != want[i] {
			t.Errorf("series[%d] = %+v, want %+v", i, p, want[i])
		}
	}
}
