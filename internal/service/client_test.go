package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryTransient5xx: idempotent requests ride out transient 5xx and
// succeed once the daemon recovers.
func TestRetryTransient5xx(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(JobStatus{ID: "7", State: StateDone})
	}))
	defer hs.Close()
	c, err := NewClient(hs.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(context.Background(), "7")
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if st.ID != "7" || calls.Load() != 3 {
		t.Errorf("got %+v after %d calls, want ID 7 after 3", st, calls.Load())
	}
}

// TestNoRetryOn4xx: client errors are not retried and surface as APIError.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
	}))
	defer hs.Close()
	c, err := NewClient(hs.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Job(context.Background(), "x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("got %v, want 404 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("4xx was retried %d times", calls.Load()-1)
	}
}

// TestRetryBudgetExhausted: a daemon that never recovers fails after the
// configured attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer hs.Close()
	c, err := NewClient(hs.URL, WithRetries(2), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(context.Background(), "x"); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls.Load() != 3 {
		t.Errorf("made %d attempts, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestSubmitNotRetried: submission is not idempotent, so even a 5xx must
// not be resubmitted.
func TestSubmitNotRetried(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "hiccup", http.StatusInternalServerError)
	}))
	defer hs.Close()
	c, err := NewClient(hs.URL, WithRetries(5), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), JobSpec{App: "LULESH", Runs: 1}); err == nil {
		t.Fatal("failed submit reported success")
	}
	if calls.Load() != 1 {
		t.Errorf("submit was sent %d times", calls.Load())
	}
}

// TestWatchContextCancellation: a cancelled context ends a watch promptly
// with the context's error.
func TestWatchContextCancellation(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		// Hold the stream open without a terminal event.
		<-r.Context().Done()
	}))
	defer hs.Close()
	c, err := NewClient(hs.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Watch(ctx, "1", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled watch reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not return after context cancellation")
	}
}

// TestBareHostPort: a scheme-less address gets http.
func TestBareHostPort(t *testing.T) {
	c, err := NewClient("127.0.0.1:7207")
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://127.0.0.1:7207" {
		t.Errorf("base = %q", c.base)
	}
}

// TestPeerRetryCancelledContext is the regression test for doRetry's
// cancellation handling: when the caller's context dies while doRetry is
// backing off after a transient failure, the returned error must surface
// the cancellation (errors.Is(err, context.Canceled)), not the stale
// transport error from the last attempt — and no further attempts may be
// made. Otherwise a deliberate coordinator teardown is indistinguishable
// from a worker failure.
func TestPeerRetryCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var requests atomic.Int32
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		// The caller gives up while the client is backing off.
		cancel()
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ws.Close()

	c, err := NewClient(ws.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = c.doRetry(ctx, http.MethodGet, "/v1/jobs/1", nil, nil)
	if err == nil {
		t.Fatal("doRetry returned nil; want a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("doRetry error = %v; want errors.Is(err, context.Canceled)", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("worker saw %d requests after cancellation; want exactly 1", n)
	}
}

// TestRetryablePeerContextErrors: context errors are never retryable —
// they mean the caller is done, not that the worker is unhealthy.
func TestRetryablePeerContextErrors(t *testing.T) {
	for _, err := range []error{context.Canceled, context.DeadlineExceeded} {
		if retryable(err) {
			t.Errorf("retryable(%v) = true; want false", err)
		}
	}
	if !retryable(&APIError{Status: 503, Message: "busy"}) {
		t.Error("retryable(503) = false; want true")
	}
	if retryable(&APIError{Status: 404, Message: "nope"}) {
		t.Error("retryable(404) = true; want false")
	}
}

// TestPeerDeadlineSurfaces: a deadline expiring mid-backoff behaves like
// a cancel — the deadline error is what comes back.
func TestPeerDeadlineSurfaces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer ws.Close()

	c, err := NewClient(ws.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = c.doRetry(ctx, http.MethodGet, "/v1/jobs/1", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("doRetry error = %v; want errors.Is(err, context.DeadlineExceeded)", err)
	}
}
