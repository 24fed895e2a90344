package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchReconnectsOnTruncated: a stream the daemon cut with an
// explicit truncated event must reconnect immediately — without spending
// the retry budget reserved for transport failures — and run to the
// terminal event on the new connection. The truncated event itself is
// still delivered to the callback so watchers can count their drops.
func TestWatchReconnectsOnTruncated(t *testing.T) {
	var streams atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/7/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if streams.Add(1) == 1 {
			// First connection: the watcher "lagged" and is truncated.
			enc.Encode(Event{Kind: EventState, Job: "7", State: StateRunning})
			enc.Encode(Event{Kind: EventTruncated, Job: "7"})
			return
		}
		// Reconnect: replay an experiment, then finish.
		enc.Encode(Event{Kind: EventExperiment, Job: "7",
			Experiment: &ExperimentEvent{ID: 0, Outcome: "Vanished"}})
		enc.Encode(Event{Kind: EventResult, Job: "7", State: StateDone})
	})
	mux.HandleFunc("GET /v1/jobs/7", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(JobStatus{ID: "7", State: StateDone})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	// WithRetries(0): the reconnect must not need any retry budget.
	c, err := NewClient(hs.URL, WithRetries(0), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	st, err := c.Watch(context.Background(), "7", func(ev Event) error {
		kinds = append(kinds, string(ev.Kind))
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != StateDone {
		t.Errorf("final state = %s, want done", st.State)
	}
	if n := streams.Load(); n != 2 {
		t.Errorf("stream connections = %d, want 2 (truncation + reconnect)", n)
	}
	got := strings.Join(kinds, ",")
	if got != "state,truncated,experiment,result" {
		t.Errorf("event kinds = %s, want state,truncated,experiment,result", got)
	}
}
