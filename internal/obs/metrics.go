package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable level metric. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v when v is larger: a high-water mark that
// concurrent observers can all report to.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative-style histogram that merges
// losslessly: two histograms over the same bounds combine by adding
// bucket counts and sums, so shard partials can carry latency
// distributions back to the coordinator exactly (see the package doc
// for why the buckets are fixed rather than adaptive).
//
// Bounds are inclusive upper edges in ascending order; an implicit
// +Inf bucket catches overflow. A nil *Histogram is a no-op.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. It panics on unsorted, empty, or NaN bounds — bucket layouts
// are compiled-in constants, not runtime data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic("obs: histogram bounds must be ascending and not NaN")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]uint64, len(h.bounds)+1)
	return h
}

// LatencyBuckets returns the stack's standard latency bucket layout:
// roughly exponential from 50µs to 60s. Experiments at test scale land
// in the bottom decades, full-scale apps and hang timeouts at the top.
func LatencyBuckets() []float64 {
	return []float64{
		0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// FractionBuckets returns the standard layout for ratio metrics in
// [0, 1] (e.g. the dirty-block fraction of a delta restore): fine at the
// low end, where block-granular restores of lightly-dirtying forks land,
// with 1.0 as the exact full-copy bucket.
func FractionBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 0.75, 0.9, 1,
	}
}

// SizeBuckets returns the standard layout for byte-size metrics:
// power-of-four from 1KiB to 1GiB, wide enough to separate delta
// restores (KiB range at test scale) from full golden-state copies
// (tens of MiB and up).
func SizeBuckets() []float64 {
	return []float64{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge adds other's buckets into h. Both histograms must share the
// same bounds; merging a nil or empty histogram is a no-op.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	o := other.Snapshot()
	return h.merge(o)
}

func (h *Histogram) merge(o HistogramData) error {
	if o.Count == 0 && len(o.Bounds) == 0 {
		return nil
	}
	if h == nil {
		return fmt.Errorf("obs: merge into nil histogram")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(o.Bounds) != len(h.bounds) {
		return fmt.Errorf("obs: histogram bucket layouts differ: %d vs %d bounds", len(h.bounds), len(o.Bounds))
	}
	for i, b := range h.bounds {
		if o.Bounds[i] != b {
			return fmt.Errorf("obs: histogram bucket layouts differ at bound %d: %v vs %v", i, b, o.Bounds[i])
		}
	}
	for i, c := range o.Counts {
		h.counts[i] += c
	}
	h.count += o.Count
	h.sum += o.Sum
	return nil
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramData is the wire form of a Histogram: the JSON shape that
// rides inside shard PartialResults and journals.
type HistogramData struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramData{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// MarshalJSON encodes the histogram as its HistogramData snapshot.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Snapshot())
}

// UnmarshalJSON restores a histogram from its HistogramData form.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var d HistogramData
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.Counts) != len(d.Bounds)+1 {
		return fmt.Errorf("obs: histogram data has %d counts for %d bounds", len(d.Counts), len(d.Bounds))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bounds = d.Bounds
	h.counts = d.Counts
	h.count = d.Count
	h.sum = d.Sum
	return nil
}

// Equal reports whether two histograms hold identical bounds, counts,
// and sums. Mainly for tests of merge losslessness.
func (h *Histogram) Equal(other *Histogram) bool {
	a, b := h.Snapshot(), other.Snapshot()
	if a.Count != b.Count || a.Sum != b.Sum ||
		len(a.Bounds) != len(b.Bounds) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return false
		}
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}
