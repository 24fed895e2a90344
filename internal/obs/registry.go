package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds named metric families and renders them in Prometheus
// text exposition format. Registration is idempotent: asking for an
// existing name+labels series returns the same collector, so hot paths
// can cache the pointer and cold paths can just re-register.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	series          []*series
}

type series struct {
	labels    []Label
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) lookup(name, help, typ string, labels []Label) (*family, *series) {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return f, s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.series = append(f.series, s)
	return f, s
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s := r.lookup(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s := r.lookup(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// render time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s := r.lookup(name, help, "counter", labels)
	s.counterFn = fn
}

// GaugeFunc registers a gauge series whose value is read from fn at
// render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s := r.lookup(name, help, "gauge", labels)
	s.gaugeFn = fn
}

// Histogram registers (or returns the existing) histogram series over
// the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s := r.lookup(name, help, "histogram", labels)
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (one # HELP/# TYPE header per family, series in
// registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		r.mu.Lock()
		series := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelSet(s.labels, "", ""), s.counter.Value())
		return err
	case s.counterFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelSet(s.labels, "", ""), s.counterFn())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(s.labels, "", ""), formatFloat(s.gaugeFn()))
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(s.labels, "", ""), formatFloat(s.gauge.Value()))
		return err
	case s.hist != nil:
		d := s.hist.Snapshot()
		cum := uint64(0)
		for i, b := range d.Bounds {
			cum += d.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelSet(s.labels, "le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if len(d.Counts) > 0 {
			cum += d.Counts[len(d.Counts)-1]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelSet(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelSet(s.labels, "", ""), formatFloat(d.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelSet(s.labels, "", ""), d.Count)
		return err
	}
	return nil
}

// labelSet renders {a="1",b="2"} with an optional extra label appended
// (used for the histogram "le" edge). Empty sets render as "".
func labelSet(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
