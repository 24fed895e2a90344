package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// peerClient is the coordinator's minimal HTTP client for dispatching
// shard jobs to peer workers. It is deliberately not the public typed
// client (internal/service/client imports this package, so using it here
// would cycle); it speaks the same /v1 wire protocol and decodes error
// codes back into the shared sentinels.
type peerClient struct {
	// hc serves the request/response calls: 30 s bounds any one of them.
	hc *http.Client
	// stream serves watch alone. It has no whole-request Timeout — that
	// would cut every shard longer than it — so a stream lives exactly as
	// long as the context of the shard that opened it.
	stream *http.Client
}

func newPeerClient() *peerClient {
	return &peerClient{hc: &http.Client{Timeout: 30 * time.Second}, stream: &http.Client{}}
}

// peerError is a non-2xx response from a worker, carrying the decoded
// sentinel (when the code mapped) for errors.Is.
type peerError struct {
	status  int
	message string
	wrapped error
}

func (e *peerError) Error() string {
	return fmt.Sprintf("service: worker returned %d: %s", e.status, e.message)
}

func (e *peerError) Unwrap() error { return e.wrapped }

// newPeerError decodes a non-2xx response's JSON error body.
func newPeerError(resp *http.Response) *peerError {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &peerError{status: resp.StatusCode, message: msg, wrapped: ErrorForCode(e.Code)}
}

// retryablePeer reports whether a worker call may be retried: transport
// errors and 5xx are transient, 4xx are not. Context cancellation and
// deadline expiry are never retryable — they mean the *caller* is done
// (coordinator teardown, drain), not that the worker is unhealthy, and
// retrying them would misclassify teardown as worker death.
func retryablePeer(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *peerError
	if errors.As(err, &pe) {
		return pe.status >= 500
	}
	return err != nil
}

// do runs one request against a worker base URL and decodes the JSON
// response into out (when non-nil).
func (p *peerClient) do(ctx context.Context, method, base, path string, body, out any) error {
	return p.doHeaders(ctx, method, base, path, body, out, "", "")
}

// doHeaders is do with an optional trace ID (X-Faultprop-Trace) and
// tenant (X-Faultprop-Tenant) forwarded as headers.
func (p *peerClient) doHeaders(ctx context.Context, method, base, path string, body, out any, trace, tenant string) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("service: peer encode: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("service: peer: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return fmt.Errorf("service: peer %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return newPeerError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("service: peer decode: %w", err)
	}
	return nil
}

// doRetry is do with a small bounded backoff for idempotent calls.
func (p *peerClient) doRetry(ctx context.Context, method, base, path string, body, out any) error {
	backoff := 100 * time.Millisecond
	var err error
	for attempt := 0; ; attempt++ {
		if err = p.do(ctx, method, base, path, body, out); err == nil || !retryablePeer(err) {
			return err
		}
		if attempt >= 3 {
			return err
		}
		select {
		case <-time.After(backoff << attempt):
		case <-ctx.Done():
			// The caller gave up while we were backing off. Surface the
			// cancellation — errors.Is(err, context.Canceled) must hold —
			// not the stale transport error from the last attempt, which
			// would make a deliberate teardown look like a worker failure.
			return fmt.Errorf("service: peer %s %s: %w (last attempt: %v)",
				method, path, ctx.Err(), err)
		}
	}
}

// ping checks a worker's liveness and API compatibility.
func (p *peerClient) ping(ctx context.Context, base string) error {
	var v VersionInfo
	if err := p.do(ctx, http.MethodGet, base, "/v1/version", nil, &v); err != nil {
		return err
	}
	if v.API != APIVersion {
		return fmt.Errorf("service: worker %s speaks API %q, want %q", base, v.API, APIVersion)
	}
	return nil
}

// submit queues a shard job on a worker, propagating the shard's span ID
// in the X-Faultprop-Trace header (so the worker's journal, events, and
// logs carry it) and the parent job's tenant in X-Faultprop-Tenant (for
// accounting; shard jobs bypass worker-side admission). Submission is
// not retried (it is not idempotent); a failed submit requeues the shard
// instead.
func (p *peerClient) submit(ctx context.Context, base string, spec JobSpec, trace, tenant string) (JobStatus, error) {
	var st JobStatus
	err := p.doHeaders(ctx, http.MethodPost, base, "/v1/jobs", spec, &st, trace, tenant)
	return st, err
}

// watch follows one worker job's event stream on a single connection,
// calling fn for every event. It returns nil once the job's terminal
// event has been delivered, and otherwise why the connection ended early
// (see ReadEvents). ctx is the only bound on the connection's life: cancel
// it to detach.
func (p *peerClient) watch(ctx context.Context, base, id string, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return fmt.Errorf("service: peer: %w", err)
	}
	resp, err := p.stream.Do(req)
	if err != nil {
		return fmt.Errorf("service: peer GET /v1/jobs/%s/stream: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return newPeerError(resp)
	}
	_, err = ReadEvents(resp.Body, func(ev Event) error {
		fn(ev)
		return nil
	})
	return err
}

// job fetches one job's status.
func (p *peerClient) job(ctx context.Context, base, id string) (JobStatus, error) {
	var st JobStatus
	err := p.doRetry(ctx, http.MethodGet, base, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// cancel best-effort stops a worker job (coordinator teardown).
func (p *peerClient) cancel(ctx context.Context, base, id string) {
	_ = p.do(ctx, http.MethodPost, base, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// partial fetches a finished shard job's mergeable aggregate.
func (p *peerClient) partial(ctx context.Context, base, id string) (*harness.PartialResult, error) {
	var part harness.PartialResult
	if err := p.doRetry(ctx, http.MethodGet, base, "/v1/jobs/"+id+"/partial", nil, &part); err != nil {
		return nil, err
	}
	return &part, nil
}
