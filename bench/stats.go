package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. It returns NaN for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quietSum estimates what a sequence of pieces of work takes on an
// undisturbed machine from repetitions of it: piece i took reps[r][i] in
// repetition r, and the estimate is the sum over the pieces of each
// piece's fastest repetition. The benchmark's host slows a CPU-bound
// process down by up to a half for seconds to minutes at a time and never
// speeds it up, so the fastest repetition repeats from run to run two to
// three times better than the median one (README.md, "How the bounds were
// set"). It returns NaN without repetitions or when they disagree on the
// number of pieces.
func quietSum(reps [][]float64) float64 {
	if len(reps) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range reps[0] {
		best := math.Inf(1)
		for _, rep := range reps {
			if len(rep) != len(reps[0]) {
				return math.NaN()
			}
			best = math.Min(best, rep[i])
		}
		sum += best
	}
	return sum
}

// tailPercentile is the reporting rule for timings: the highest of the
// percentiles 99, 95, 90 and 75 that leaves at least ten of n samples
// beyond it, or 50 when none does (a tail estimated from fewer than ten
// samples is mostly noise).
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}
