package service

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/harness"
)

// The event codec's oracle is encoding/json: appendEvent must write
// json.Encoder's bytes and errors, and the decoder must give every line
// json.Unmarshal's verdict and value.

// eventMirror is Event without any method it may gain: the oracle's own
// encoding and decoding, which no codec can reach.
type eventMirror Event

// checkEventDecode asserts that the decoder and json.Unmarshal agree on
// line, and reports whether the decoder took its fast path.
func checkEventDecode(t testing.TB, line []byte) (fast bool) {
	t.Helper()
	var want, got Event
	werr := json.Unmarshal(line, (*eventMirror)(&want))
	before := eventFallbacks.Load()
	var d eventDecoder
	gerr := d.decode(line, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode of %q: codec error %v, encoding/json error %v", line, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %q:\ncodec         %+v\nencoding/json %+v", line, got, want)
	}
	return eventFallbacks.Load() == before
}

// checkEventEncode asserts that appendEvent appends json.Encoder's bytes,
// or fails with its error and appends nothing, and returns what it
// appended.
func checkEventEncode(t testing.TB, e Event) []byte {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode((*eventMirror)(&e))
	prefix := []byte("data: ")
	got, gerr := appendEvent(prefix[:len(prefix):len(prefix)], &e)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("encode of %+v: codec error %v, encoding/json error %v", e, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("encode of %+v failed but appended %q", e, got[len(prefix):])
		}
	case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()):
		t.Fatalf("encode of %+v:\ncodec         %s\nencoding/json %s", e, got, want.Bytes())
	}
	return got[len(prefix):]
}

// streamEvents are one of each event a stream carries, as the daemon
// builds them, with strings that need escaping among them.
func streamEvents() []Event {
	tally := &classify.Tally{Counts: [classify.NumOutcomes]int{3, 1, 0, 2, 1}, Total: 7}
	return []Event{
		{Kind: EventState, Job: "j1", Seq: 1, Trace: "t-1", State: StateRunning,
			Progress: &harness.Snapshot{Total: 7, Done: 2, RunsPerSec: 12.5, Outcomes: tally.Counts}},
		{Kind: EventExperiment, Job: "j1", Trace: "t-1", Experiment: &ExperimentEvent{
			ID: 4, Outcome: "PEX", Rank: 2, Cycle: 1234, Fired: true, MaxCML: 7, Resumed: true}},
		{Kind: EventExperiment, Job: "j1", Seq: 9, Experiment: &ExperimentEvent{ID: 0, Outcome: "V"}},
		{Kind: EventExperiment, Job: "<j&1>", Seq: 18446744073709551615, Trace: "σ\u2028\xff",
			State: StateRunning, Error: "a \"b\"\n", Experiment: &ExperimentEvent{
				ID: -9223372036854775808, Outcome: "é", Rank: 9223372036854775807, Cycle: 1}},
		{Kind: EventProgress, Job: "j1", Seq: 3, Progress: &harness.Snapshot{Total: 7, Done: 7, Exited: 2}},
		{Kind: EventResult, Job: "j1", Seq: 12, Trace: "t-1", State: StateDone, Tally: tally, FPS: 0.125},
		{Kind: EventTruncated, Job: "j1", Trace: "t-1"},
		{Kind: EventExperiment, Job: "j1", Experiment: &ExperimentEvent{ID: 1}, FPS: 1e21},
		{Kind: EventState, Job: "j1", FPS: math.Inf(1)},
	}
}

// TestEventCodecMatchesEncodingJSON: every kind of event encodes to
// json.Encoder's bytes (or its error), and its line decodes to
// json.Unmarshal's value — through the fast path when its strings are
// plain — as does every prefix of it.
func TestEventCodecMatchesEncodingJSON(t *testing.T) {
	for _, e := range streamEvents() {
		line := bytes.TrimSuffix(checkEventEncode(t, e), []byte("\n"))
		if len(line) == 0 {
			continue // an encoding error
		}
		plain := !bytes.Contains(line, []byte{'\\'}) && bytes.IndexFunc(line, func(r rune) bool { return r > 0x7e }) < 0
		if fast := checkEventDecode(t, line); fast != plain {
			t.Errorf("%s: fast path %v, want %v", line, fast, plain)
		}
		for i := range line {
			checkEventDecode(t, line[:i])
		}
	}
}

// eventEdge is a canonical experiment line that eventEdges edit.
const eventEdge = `{"kind":"experiment","job":"j1","seq":0,"trace":"t-1","experiment":{"id":4,"outcome":"PEX","rank":2,"cycle":1234,"fired":true,"maxCML":7,"resumed":true}}`

// eventEdges replace the first old in eventEdge by new, each with the path
// it must take.
var eventEdges = []struct {
	old, new string
	fast     bool
}{
	{`{"kind":"experiment",`, `{`, true},
	{`"seq":0`, `"seq":18446744073709551615`, true},
	{`"cycle":1234,`, ``, true},
	{`"experiment":{`, `"tally":{"Counts":[1,2,3,4,5],"Total":15},"fps":-0,"experiment":{`, true},
	{`"experiment":{`, `"progress":{"Total":1,"ETA":5},"experiment":{`, true},
	{`"experiment":{`, `"tally":null,"experiment":{`, true},
	{`"experiment":{`, `"state":"weird","error":"x","experiment":{`, true},
	{`"job":"j1"`, `"job":"j1","job":"j2"`, false},
	{`"id":4`, `"id":4,"id":5`, false},
	{`"job":"j1"`, `"Job":"j1"`, false},
	{`"job":"j1"`, `"job":"j\u0031"`, false},
	{`"job":"j1"`, `"job":"é"`, false},
	{`"seq":0`, `"seq":-1`, false},
	{`"seq":0`, `"seq":1.0`, false},
	{`"seq":0`, `"seq": 0`, false},
	{`"id":4`, `"id":9223372036854775808`, false},
	{`"fired":true`, `"fired":1`, false},
	{`"experiment":{`, `"experiment":null,"x":{`, false},
	{`"experiment":{`, `"extra":1,"experiment":{`, false},
	{`"experiment":{`, `"tally":{"Total":1e400},"experiment":{`, false},
	{`"experiment":{`, `"tally":{"Counts":[1,2,3,4,5,6]},"experiment":{`, true},
	{`"experiment":{`, `"tally":{"Counts":"x"},"experiment":{`, false},
	{`"experiment":{`, `"fps":1e400,"experiment":{`, false},
	{`"resumed":true}}`, `"resumed":true}}x`, false},
}

// TestEventDecodeEdges: each edited line gets json.Unmarshal's verdict and
// value, through the path the table names.
func TestEventDecodeEdges(t *testing.T) {
	if !checkEventDecode(t, []byte(eventEdge)) {
		t.Fatal("the canonical line took encoding/json's path")
	}
	for _, e := range eventEdges {
		if !strings.Contains(eventEdge, e.old) {
			t.Fatalf("eventEdge holds no %q", e.old)
		}
		line := strings.Replace(eventEdge, e.old, e.new, 1)
		if fast := checkEventDecode(t, []byte(line)); fast != e.fast {
			t.Errorf("%s: fast path %v, want %v", line, fast, e.fast)
		}
	}
}

// FuzzEventCodec: experiment events with arbitrary strings — HTML-escaped,
// non-ASCII, invalid UTF-8 — and numbers encode to json.Encoder's bytes,
// and those bytes, and any line, decode to json.Unmarshal's value.
func FuzzEventCodec(f *testing.F) {
	for _, e := range streamEvents() {
		var buf bytes.Buffer
		if json.NewEncoder(&buf).Encode((*eventMirror)(&e)) == nil {
			f.Add(bytes.TrimSpace(buf.Bytes()), "experiment", "j1", "t-1", "V", uint64(0), 0, 0, uint64(0), 0, false, false, 0.0)
		}
	}
	for _, e := range eventEdges {
		f.Add([]byte(strings.Replace(eventEdge, e.old, e.new, 1)), "experiment", "<j&1>", "σ\u2028", "é\xff",
			uint64(1), -1, 3, uint64(7), 2, true, true, 0.0)
	}
	f.Add([]byte(eventEdge), "", "", "", "", uint64(math.MaxUint64), math.MinInt, math.MaxInt, uint64(math.MaxUint64), -5, true, false, 1e-7)
	f.Fuzz(func(t *testing.T, line []byte, kind, job, trace, outcome string, seq uint64, id, rank int, cycle uint64, maxCML int, fired, resumed bool, fps float64) {
		checkEventDecode(t, line)
		e := Event{Kind: EventKind(kind), Job: job, Seq: seq, Trace: trace, FPS: fps,
			Experiment: &ExperimentEvent{ID: id, Outcome: outcome, Rank: rank, Cycle: cycle,
				Fired: fired, MaxCML: maxCML, Resumed: resumed}}
		if enc := checkEventEncode(t, e); len(enc) > 0 {
			checkEventDecode(t, bytes.TrimSuffix(enc, []byte("\n")))
		}
	})
}

// TestEventOracleMethodFree: the oracles encode and decode into a mirror
// type, but a JSON or text method on any type an event holds would still
// work the way the codec does. None has one.
func TestEventOracleMethodFree(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, iface := range []reflect.Type{
			reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
			reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
		} {
			if typ.Implements(iface) || reflect.PointerTo(typ).Implements(iface) {
				t.Errorf("%v implements %v: the codec oracles would go through it", typ, iface)
			}
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if typ.Field(i).IsExported() {
					walk(typ.Field(i).Type)
				}
			}
		}
	}
	walk(reflect.TypeFor[Event]())
}
