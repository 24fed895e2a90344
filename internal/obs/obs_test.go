package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets: samples land in the right buckets (bounds are
// inclusive upper edges; overflow goes to the implicit +Inf bucket).
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	d := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // (-inf,1] (1,2] (2,4] (4,+inf)
	for i, c := range want {
		if d.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, d.Counts[i], c, d.Counts)
		}
	}
	if d.Count != 8 || d.Sum != 0.5+1+1.5+2+3+4+5+100 {
		t.Errorf("count=%d sum=%v", d.Count, d.Sum)
	}
}

// TestHistogramMergeLossless: partitioning a sample set across shards
// and merging reproduces the whole-set histogram exactly — the property
// that lets shard partials carry latency distributions. Values are
// dyadic rationals so float summation is exact in any order.
func TestHistogramMergeLossless(t *testing.T) {
	bounds := LatencyBuckets()
	whole := NewHistogram(bounds)
	shards := []*Histogram{NewHistogram(bounds), NewHistogram(bounds), NewHistogram(bounds)}
	for i := 0; i < 3000; i++ {
		v := float64(i%977) / 1024 // dyadic: exact in float64
		whole.Observe(v)
		shards[i%3].Observe(v)
	}
	merged := NewHistogram(bounds)
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if !merged.Equal(whole) {
		t.Errorf("merged != whole:\n%+v\n%+v", merged.Snapshot(), whole.Snapshot())
	}
}

// TestHistogramMergeBoundsMismatch: merging incompatible layouts is an
// error, not silent corruption.
func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	if err := a.Merge(NewHistogram([]float64{1, 3})); err == nil {
		t.Error("mismatched bounds merged without error")
	}
	if err := a.Merge(NewHistogram([]float64{1, 2, 3})); err == nil {
		t.Error("mismatched bound count merged without error")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
	empty := &Histogram{}
	if err := a.Merge(empty); err != nil {
		t.Errorf("zero-value merge: %v", err)
	}
}

// TestHistogramJSONRoundTrip: the wire form survives encode/decode —
// this is how timings ride inside shard PartialResults.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(250 * time.Millisecond)
	h.Observe(90) // +Inf bucket
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(h) {
		t.Errorf("round trip changed histogram:\n%+v\n%+v", back.Snapshot(), h.Snapshot())
	}
	if err := json.Unmarshal([]byte(`{"bounds":[1],"counts":[1,2,3]}`), &back); err == nil {
		t.Error("inconsistent counts/bounds accepted")
	}
}

// TestNilCollectors: nil receivers are usable no-ops so instrumentation
// can be unconditional.
func TestNilCollectors(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(4)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil collectors reported nonzero values")
	}
	if d := h.Snapshot(); d.Count != 0 || len(d.Bounds) != 0 {
		t.Errorf("nil snapshot: %+v", d)
	}
}

// TestCounterGaugeConcurrent: atomic collectors tolerate concurrent
// writers (run under -race in CI).
func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g, hi Gauge
	h := NewHistogram([]float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
				hi.SetMax(float64(j*8 + i))
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
	if hi.SetMax(5); hi.Value() != 999*8+7 {
		t.Errorf("high-water gauge = %v, want %d", hi.Value(), 999*8+7)
	}
}

// TestRegistryPrometheus: the text renderer emits well-formed families
// with labels, cumulative le buckets, sum, and count.
func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs ever submitted.").Add(3)
	r.Gauge("queue_depth", "Queued jobs.", L("prio", "high")).Set(2)
	r.GaugeFunc("uptime_seconds", "Seconds up.", func() float64 { return 1.5 })
	h := r.Histogram("latency_seconds", "Experiment latency.", []float64{0.1, 1}, L("outcome", "Masked"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`queue_depth{prio="high"} 2`,
		"uptime_seconds 1.5",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{outcome="Masked",le="0.1"} 1`,
		`latency_seconds_bucket{outcome="Masked",le="1"} 2`,
		`latency_seconds_bucket{outcome="Masked",le="+Inf"} 3`,
		`latency_seconds_sum{outcome="Masked"} 5.55`,
		`latency_seconds_count{outcome="Masked"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryIdempotent: re-registering a name+labels series returns
// the same collector.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "help")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	h1 := r.Histogram("h", "help", []float64{1}, L("k", "v"))
	h2 := r.Histogram("h", "help", []float64{1}, L("k", "v"))
	h3 := r.Histogram("h", "help", []float64{1}, L("k", "w"))
	if h1 != h2 || h1 == h3 {
		t.Error("histogram series identity broken")
	}
}

// TestTraceIDs: IDs are fresh, hex, and CleanTrace filters junk.
func TestTraceIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 || seen[id] {
			t.Fatalf("bad or duplicate trace id %q", id)
		}
		if CleanTrace(id) != id {
			t.Fatalf("generated id %q rejected by CleanTrace", id)
		}
		seen[id] = true
	}
	if got := ShardSpan("abc", 3); got != "abc/s3" {
		t.Errorf("ShardSpan = %q", got)
	}
	if CleanTrace("ok-id_1/s2.x") == "" {
		t.Error("valid trace rejected")
	}
	for _, bad := range []string{"", strings.Repeat("a", 65), "sp ace", "new\nline", "quo\"te", "héx"} {
		if CleanTrace(bad) != "" {
			t.Errorf("CleanTrace(%q) accepted", bad)
		}
	}
}

// TestGaugeNegativeAndInf: gauges hold any float.
func TestGaugeNegativeAndInf(t *testing.T) {
	var g Gauge
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Errorf("gauge = %v", g.Value())
	}
}
