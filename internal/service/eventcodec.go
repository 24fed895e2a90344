package service

import (
	"encoding/json"
	"strconv"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/harness"
	"repro/internal/jsonlex"
)

// The event codec owns the stream's line format, and encoding/json
// defines it: handleStream writes what json.Encoder would write, and
// ReadEvents takes every line as json.Unmarshal would. Experiment events,
// one per experiment and nearly all of a stream, are written by hand;
// every other event through encoding/json. The reader decodes an event in
// the compact layout — known keys each at most once, plain ASCII strings,
// RFC 8259 numbers — itself, the progress snapshot and the tally of its
// own bytes through json.Unmarshal, and hands every other line to
// json.Unmarshal, whose verdict stands. The tests hold both halves to
// encoding/json as their oracle.

// eventFallbacks counts, process-wide, the stream lines decodeEvent handed
// to json.Unmarshal because its fast path did not take them.
var eventFallbacks atomic.Uint64

// appendEvent appends e as one stream line to dst: json.Encoder's bytes,
// or its error with dst unchanged.
func appendEvent(dst []byte, e *Event) ([]byte, error) {
	if e.Experiment != nil && e.Progress == nil && e.Tally == nil && e.FPS == 0 {
		return appendExperiment(dst, e), nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return dst, err
	}
	return append(append(dst, data...), '\n'), nil
}

// appendExperiment is appendEvent for an experiment event, one with
// neither a progress snapshot, nor a tally, nor an FPS. It keeps e from
// escaping, so a caller's event and its experiment can stay on the stack.
func appendExperiment(dst []byte, e *Event) []byte {
	x := e.Experiment
	b := append(dst, `{"kind":`...)
	b = jsonlex.AppendString(b, string(e.Kind))
	b = append(b, `,"job":`...)
	b = jsonlex.AppendString(b, e.Job)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	if e.Trace != "" {
		b = append(b, `,"trace":`...)
		b = jsonlex.AppendString(b, e.Trace)
	}
	if e.State != "" {
		b = append(b, `,"state":`...)
		b = jsonlex.AppendString(b, string(e.State))
	}
	if e.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonlex.AppendString(b, e.Error)
	}
	b = append(b, `,"experiment":{"id":`...)
	b = strconv.AppendInt(b, int64(x.ID), 10)
	b = append(b, `,"outcome":`...)
	b = jsonlex.AppendString(b, x.Outcome)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(x.Rank), 10)
	if x.Cycle != 0 {
		b = append(b, `,"cycle":`...)
		b = strconv.AppendUint(b, x.Cycle, 10)
	}
	b = append(b, `,"fired":`...)
	b = strconv.AppendBool(b, x.Fired)
	if x.MaxCML != 0 {
		b = append(b, `,"maxCML":`...)
		b = strconv.AppendInt(b, int64(x.MaxCML), 10)
	}
	if x.Resumed {
		b = append(b, `,"resumed":true`...)
	}
	return append(b, "}}\n"...)
}

// eventDecoder decodes the lines of one stream. It keeps the job and trace
// of the last event it decoded, which every later event of the stream
// repeats, so that it does not allocate them again.
type eventDecoder struct {
	job, trace string
}

// decode decodes one stream line into ev, overwriting it. The result and
// the error are json.Unmarshal's into a zero value.
func (d *eventDecoder) decode(line []byte, ev *Event) error {
	*ev = Event{}
	if d.decodeFast(line, ev) {
		d.job, d.trace = ev.Job, ev.Trace
		return nil
	}
	eventFallbacks.Add(1)
	// Decoding into a copy keeps ev from escaping: a reader's event can
	// stay on its stack.
	var slow Event
	err := json.Unmarshal(line, &slow)
	*ev = slow
	return err
}

// decodeFast decodes an event in the compact layout, in any key order. It
// reports false, leaving ev partly written, at the first thing it cannot
// decode exactly as json.Unmarshal would.
func (d *eventDecoder) decodeFast(line []byte, ev *Event) bool {
	p := jsonlex.New(line)
	// own decodes the value at the lexer into v with encoding/json. v is a
	// variable of the case that calls it, not a field of ev, which would
	// make ev escape.
	own := func(v any) {
		if raw := p.SkipValue(); !p.Bad() && json.Unmarshal(raw, v) != nil {
			p.Fail()
		}
	}
	p.Object(func(key []byte) uint32 {
		switch string(key) {
		case "kind":
			ev.Kind = EventKind(intern(p.Str(), string(EventExperiment), string(EventState),
				string(EventProgress), string(EventResult), string(EventTruncated)))
			return 1 << 0
		case "job":
			ev.Job = intern(p.Str(), d.job)
			return 1 << 1
		case "seq":
			ev.Seq = p.Uint(64)
			return 1 << 2
		case "trace":
			ev.Trace = intern(p.Str(), d.trace)
			return 1 << 3
		case "state":
			ev.State = JobState(intern(p.Str(), string(StateQueued), string(StateRunning),
				string(StateDone), string(StateFailed), string(StateCancelled)))
			return 1 << 4
		case "error":
			ev.Error = string(p.Str())
			return 1 << 5
		case "experiment":
			x := new(ExperimentEvent)
			ev.Experiment = x
			p.Object(func(key []byte) uint32 {
				switch string(key) {
				case "id":
					x.ID = int(p.Int(0))
					return 1 << 0
				case "outcome":
					x.Outcome = intern(p.Str(), outcomeNames[:]...)
					return 1 << 1
				case "rank":
					x.Rank = int(p.Int(0))
					return 1 << 2
				case "cycle":
					x.Cycle = p.Uint(64)
					return 1 << 3
				case "fired":
					x.Fired = p.Bool()
					return 1 << 4
				case "maxCML":
					x.MaxCML = int(p.Int(0))
					return 1 << 5
				case "resumed":
					x.Resumed = p.Bool()
					return 1 << 6
				}
				return 0
			})
			return 1 << 6
		case "progress":
			var snap *harness.Snapshot
			own(&snap)
			ev.Progress = snap
			return 1 << 7
		case "tally":
			var tally *classify.Tally
			own(&tally)
			ev.Tally = tally
			return 1 << 8
		case "fps":
			ev.FPS = p.Float()
			return 1 << 9
		}
		return 0
	})
	return p.Done()
}

// outcomeNames are the outcome classes' names, as experiment events carry
// them.
var outcomeNames = func() (names [classify.NumOutcomes]string) {
	for o := range names {
		names[o] = classify.Outcome(o).String()
	}
	return names
}()

// intern returns the string of b: one of known when b spells it, which
// saves allocating it again.
func intern(b []byte, known ...string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}
