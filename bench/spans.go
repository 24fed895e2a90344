package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into the
// program: its name, its bounds relative to the tracer's epoch, the span
// that caused it (-1 for a root), and the workload repetition it belongs
// to, which every span of that repetition shares.
type span struct {
	Name       string
	Parent     int
	Rep        int
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the end-to-end pass runs with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: rep, Start: time.Since(t.epoch), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch)
}

// within records a finished child of span parent after the fact, its
// bounds given relative to the parent's start: a phase of a call that
// only its callbacks tell apart.
func (t *tracer) within(parent int, name string, from, to time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: p.Rep, Start: p.Start + from, End: p.Start + to})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover. Children may overlap one another
// (concurrent clients), so their intervals are merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never ended
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each repetition gets its own track.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Rep,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the self-time table, largest first.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if self[names[a]] != self[names[b]] {
			return self[names[a]] > self[names[b]]
		}
		return names[a] < names[b]
	})
	fmt.Fprintln(w, "# self time by span (span minus the interval its children cover)")
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s %10.3f ms\n", n, float64(self[n])/float64(time.Millisecond))
	}
}
