package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMomentsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
	}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	if m.N != len(xs) {
		t.Fatalf("N = %d, want %d", m.N, len(xs))
	}
	if !almostEqual(m.Mean, Mean(xs), 1e-12) {
		t.Errorf("Mean = %v, want %v", m.Mean, Mean(xs))
	}
	if !almostEqual(m.Variance(), Variance(xs), 1e-12) {
		t.Errorf("Variance = %v, want %v", m.Variance(), Variance(xs))
	}
	if m.Min() != Min(xs) || m.Max() != Max(xs) {
		t.Errorf("extrema (%v, %v), want (%v, %v)", m.Min(), m.Max(), Min(xs), Max(xs))
	}
}

// TestMomentsMergeEqualsUnion is the sharding property: accumulators over
// arbitrary disjoint slices, merged in any order, must match the
// accumulator of the whole sample set.
func TestMomentsMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	for trial := 0; trial < 20; trial++ {
		// Random partition into 1..8 contiguous pieces.
		k := 1 + rng.Intn(8)
		cuts := map[int]bool{0: true, len(xs): true}
		for i := 0; i < k; i++ {
			cuts[rng.Intn(len(xs)+1)] = true
		}
		var bounds []int
		for c := range cuts {
			bounds = append(bounds, c)
		}
		for i := 1; i < len(bounds); i++ { // insertion sort
			for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
				bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
			}
		}
		parts := make([]Moments, 0, len(bounds)-1)
		for i := 0; i+1 < len(bounds); i++ {
			var p Moments
			for _, x := range xs[bounds[i]:bounds[i+1]] {
				p.Add(x)
			}
			parts = append(parts, p)
		}
		var merged Moments
		for _, i := range rng.Perm(len(parts)) {
			merged.Merge(parts[i])
		}
		if merged.N != whole.N {
			t.Fatalf("trial %d: N = %d, want %d", trial, merged.N, whole.N)
		}
		if !almostEqual(merged.Mean, whole.Mean, 1e-10) {
			t.Errorf("trial %d: Mean %v vs %v", trial, merged.Mean, whole.Mean)
		}
		if !almostEqual(merged.Variance(), whole.Variance(), 1e-9) {
			t.Errorf("trial %d: Variance %v vs %v", trial, merged.Variance(), whole.Variance())
		}
		if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Errorf("trial %d: extrema differ", trial)
		}
	}
}

func TestMomentsMergeEmptyAndJSON(t *testing.T) {
	var a, b Moments
	a.Merge(b) // empty ∪ empty
	if a.N != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty merge mutated: %+v", a)
	}
	b.Add(2)
	b.Add(4)
	a.Merge(b) // empty ∪ {2,4}
	if a.N != 2 || a.Mean != 3 {
		t.Fatalf("merge into empty: %+v", a)
	}
	var c Moments
	a.Merge(c) // {2,4} ∪ empty
	if a.N != 2 || a.Mean != 3 {
		t.Fatalf("merge of empty: %+v", a)
	}

	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var rt Moments
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	if rt != a {
		t.Fatalf("JSON round-trip: %+v vs %+v", rt, a)
	}
}
