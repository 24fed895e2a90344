package service

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// hub fans one job's event stream out to any number of subscribers. Events
// are delivered best-effort: a subscriber that falls buffer-size events
// behind is disconnected rather than allowed to stall the job. A dropped
// subscriber's channel closes exactly like a graceful close, so the
// subscriber struct carries an explicit truncated flag — stream handlers
// use it to end the stream with EventTruncated instead of a misleading
// non-terminal "final" status, and clients reconnect (the journal replay
// makes the resumed stream lossless). The hub closes when the job reaches
// a terminal state, which closes every subscriber channel after its
// buffered events drain.
type hub struct {
	mu     sync.Mutex
	seq    uint64
	trace  string
	buffer int
	subs   map[*subscriber]struct{}
	closed bool
	// drops counts subscribers disconnected for lagging (the daemon-wide
	// stream-drop metric; nil-safe).
	drops *obs.Counter
}

// subscriber is one attached stream. truncated is written under the hub
// lock strictly before ch is closed, so a reader that observed the close
// may read it without further synchronization.
type subscriber struct {
	ch        chan Event
	truncated bool
}

const defaultSubscriberBuffer = 256

// closedEvents is the channel of every subscriber to a closed hub.
var closedEvents = func() chan Event {
	ch := make(chan Event)
	close(ch)
	return ch
}()

// newHub creates the event hub for one job. Every published event is
// stamped with the job's trace ID; laggard drops are counted into drops.
func newHub(trace string, buffer int, drops *obs.Counter) *hub {
	if buffer <= 0 {
		buffer = defaultSubscriberBuffer
	}
	return &hub{subs: make(map[*subscriber]struct{}), trace: trace, buffer: buffer, drops: drops}
}

// subscribe registers a new subscriber. The returned cancel is idempotent
// and safe to call after the hub closed.
func (h *hub) subscribe() (*subscriber, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		// A settled job's watchers (every cache hit's) get no buffer.
		return &subscriber{ch: closedEvents}, func() {}
	}
	sub := &subscriber{ch: make(chan Event, h.buffer)}
	h.subs[sub] = struct{}{}
	var once sync.Once
	return sub, func() {
		once.Do(func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if _, ok := h.subs[sub]; ok {
				delete(h.subs, sub)
				close(sub.ch)
			}
		})
	}
}

// publish stamps the event's sequence number and trace ID and delivers it
// to every subscriber that has room. A laggard is marked truncated,
// counted, and disconnected.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	e.Seq = h.seq
	if e.Trace == "" {
		e.Trace = h.trace
	}
	for sub := range h.subs {
		select {
		case sub.ch <- e:
		default:
			sub.truncated = true
			delete(h.subs, sub)
			close(sub.ch)
			h.drops.Inc()
		}
	}
}

// close ends the stream: every subscriber channel closes once its buffered
// events are drained, and future publishes are dropped.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// ErrStreamTruncated marks a stream the daemon cut because this watcher
// lagged (the stream's last event has Kind EventTruncated). The job is
// still running: attach again at once — the new connection's journal
// replay recovers anything missed.
var ErrStreamTruncated = errors.New("service: event stream truncated by daemon")

// ReadEvents decodes one NDJSON event stream — the body of
// GET /v1/jobs/{id}/stream — calling fn for every event (the truncated
// and terminal ones included). It is the one reader of that format: the
// typed client's Watch and the coordinator's shard watch both sit on it.
//
// settled reports that the watch is over: the job's terminal event
// arrived (err is nil) or fn returned an error (err is that error).
// Otherwise err says why this connection ended early, and the caller may
// attach again without losing an experiment: ErrStreamTruncated, a read
// or decode error, or io.ErrUnexpectedEOF for a stream that ended before
// the job settled.
func ReadEvents(r io.Reader, fn func(Event) error) (settled bool, err error) {
	sc := bufio.NewScanner(r)
	// One event is one line, ~150 bytes for an experiment; the buffer
	// grows for a progress event with every outcome and stratum, a few
	// KiB, and 16 MiB only bounds a hostile peer.
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	var dec eventDecoder
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := dec.decode(line, &ev); err != nil {
			return false, fmt.Errorf("service: event stream: decode event: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return true, err
			}
		}
		if ev.Kind == EventTruncated {
			return false, ErrStreamTruncated
		}
		if ev.State.Terminal() {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("service: event stream: %w", err)
	}
	return false, fmt.Errorf("service: event stream ended before the job settled: %w", io.ErrUnexpectedEOF)
}
