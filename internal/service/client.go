package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Client is the typed Go client for one faultpropd instance, and the only
// code that builds a /v1 request: outside callers (cmd/campaign -remote and
// -shards, faultprop.ServiceClient) and the coordinator's dispatch to its
// workers all go through it. It covers the whole job lifecycle — submit,
// watch the live event stream, cancel, fetch the final result — with
// bounded retry on transient failures of idempotent calls.
//
// A call lives as long as the context it is given: the client sets no
// timeout of its own, so a watch can follow a job for hours and whoever
// needs a bound puts a deadline on the context (the coordinator does, see
// peerCallTimeout). Error responses carry a wire code that the client maps
// back to the service sentinels, so errors.Is(err, ErrJobNotFound) (and the
// rest) hold across the HTTP transport.
type Client struct {
	base    string
	host    string
	retries int
	backoff time.Duration
	tenant  string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetries sets how many times idempotent requests are retried after
// transient failures (connection errors, 5xx, 429). Default 3.
func WithRetries(n int) ClientOption { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff, doubled per attempt. Default
// 100ms.
func WithBackoff(d time.Duration) ClientOption { return func(c *Client) { c.backoff = d } }

// WithTenant stamps every request with the given tenant identity
// (X-Faultprop-Tenant). The daemon accounts the tenant's submissions
// against its quota and rate limit; without this option, requests are
// charged to the "default" tenant.
func WithTenant(tenant string) ClientOption { return func(c *Client) { c.tenant = tenant } }

// NewClient creates a client for the daemon at base, e.g.
// "http://127.0.0.1:7207" (a bare host:port is given the http scheme).
func NewClient(base string, opts ...ClientOption) (*Client, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	c := &Client{
		base:    strings.TrimSuffix(u.String(), "/"),
		host:    u.Host,
		retries: 3,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// APIError is a non-2xx response from the daemon. When the daemon sent a
// wire code, Code holds it and Unwrap chains to the matching service
// sentinel — errors.Is(err, ErrJobNotFound) works through the transport.
// Classify routes one without a code by its Status.
type APIError struct {
	Status  int
	Message string
	Code    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: daemon returned %d: %s", e.Status, e.Message)
}

// Unwrap returns the service sentinel for the response's wire code, or
// nil when the daemon sent no (or an unknown) code.
func (e *APIError) Unwrap() error { return ErrorForCode(e.Code) }

// apiError decodes a non-2xx response's JSON error body.
func apiError(resp *http.Response) *APIError {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg, Code: e.Code}
}

// retryable reports whether an attempt may be retried: transport errors,
// 5xx responses, and 429 (pressure rejections — full queue, rate limit,
// quota — clear as load drains) are transient; other 4xx are not. The
// context ending is never retryable: it means the caller is done (a
// coordinator tearing down, a drain), not that the daemon is unhealthy.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests
	}
	return err != nil
}

// send runs one request and returns its 2xx response, whose body the
// caller closes; any other status comes back as an *APIError. header holds
// name, value pairs set on this call alone, over the client's own; a pair
// with an empty value is skipped.
func (c *Client) send(ctx context.Context, method, path string, body any, header ...string) (*http.Response, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			req.Header.Set(header[i], header[i+1])
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// do is send for a request/response call: it decodes the JSON response
// into out (when non-nil), or hands the body to out when it is a
// decodeBody.
func (c *Client) do(ctx context.Context, method, path string, body, out any, header ...string) error {
	resp, err := c.send(ctx, method, path, body, header...)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch out := out.(type) {
	case nil:
		return nil
	case decodeBody:
		var buf bytes.Buffer
		if n := resp.ContentLength; n > 0 && n < 1<<30 {
			buf.Grow(int(n) + bytes.MinRead) // the last read's room included
		}
		if _, err = buf.ReadFrom(resp.Body); err == nil {
			err = out(buf.Bytes())
		}
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// decodeBody is an out for do that decodes the whole response body itself.
type decodeBody func([]byte) error

// doRetry is do with bounded exponential backoff; only for idempotent
// requests.
func (c *Client) doRetry(ctx context.Context, method, path string, body, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.do(ctx, method, path, body, out); err == nil || !retryable(err) {
			return err
		}
		if attempt >= c.retries {
			return err
		}
		select {
		case <-time.After(c.backoff << attempt):
		case <-ctx.Done():
			// The caller gave up while we were backing off. Surface that —
			// errors.Is(err, context.Canceled) must hold — not the stale
			// error of the last attempt, which would make a deliberate
			// teardown look like a failing daemon.
			return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), err)
		}
	}
}

// Submit queues a new campaign job. Submission is not idempotent, so it is
// never retried; callers that need at-most-once semantics on flaky links
// should list jobs before resubmitting.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	return c.submit(ctx, spec, "", "")
}

// submit is Submit with this one job's trace ID (X-Faultprop-Trace) and,
// when non-empty, a tenant overriding the client's. A coordinator submits
// its shard jobs through it: the shard's span ID makes the worker's
// journal, events and logs correlate, and the parent job's tenant keeps
// the accounting (shard jobs bypass worker-side admission).
func (c *Client) submit(ctx context.Context, spec JobSpec, trace, tenant string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st, obs.TraceHeader, trace, TenantHeader, tenant)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists every job the daemon knows.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var list []JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs", nil, &list)
	return list, err
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st)
	return st, err
}

// Result fetches a done job's full campaign result, decoded in one pass
// over the body (harness.DecodeResult).
func (c *Client) Result(ctx context.Context, id string) (*harness.CampaignResult, error) {
	var res harness.CampaignResult
	decode := decodeBody(func(data []byte) error { return harness.DecodeResult(data, &res) })
	if err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, decode); err != nil {
		return nil, err
	}
	return &res, nil
}

// Metrics fetches the service metrics document.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.doRetry(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// Version fetches the daemon's API version and capability list.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.doRetry(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// ping is the heartbeat's liveness and API-compatibility probe: Version in
// a single attempt. A retried probe would outlast its heartbeat interval,
// and the dispatch loop would keep assigning shards to a dead worker for
// the length of the back-off.
func (c *Client) ping(ctx context.Context) error {
	var v VersionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v); err != nil {
		return err
	}
	if v.API != APIVersion {
		return fmt.Errorf("service: worker %s speaks API %q, want %q", c.base, v.API, APIVersion)
	}
	return nil
}

// Partial fetches a done shard job's mergeable partial aggregate.
func (c *Client) Partial(ctx context.Context, id string) (*harness.PartialResult, error) {
	var part harness.PartialResult
	if err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/partial", nil, &part); err != nil {
		return nil, err
	}
	return &part, nil
}

// Workers lists the daemon's registered peer workers.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var list []WorkerInfo
	err := c.doRetry(ctx, http.MethodGet, "/v1/workers", nil, &list)
	return list, err
}

// RegisterWorker adds (or revives) a peer worker on the daemon, making it
// a dispatch target for coordinated (Shards > 1) jobs. An empty name
// defaults to the worker URL's host:port.
func (c *Client) RegisterWorker(ctx context.Context, name, workerURL string) (WorkerInfo, error) {
	var info WorkerInfo
	err := c.do(ctx, http.MethodPost, "/v1/workers",
		map[string]string{"name": name, "url": workerURL}, &info)
	return info, err
}

// RemoveWorker deregisters a peer worker from the daemon.
func (c *Client) RemoveWorker(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers/"+url.PathEscape(name), nil, nil)
}

// Archive lists the daemon's campaign archive: totals plus every entry's
// metadata in archive-time order. Daemons without an archive answer
// ErrArchiveDisabled (through the wire code).
func (c *Client) Archive(ctx context.Context) (ArchiveList, error) {
	var list ArchiveList
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive", nil, &list)
	return list, err
}

// ArchiveEntry fetches one archived campaign by fingerprint (a job's
// JobStatus.Fingerprint): its metadata and full result.
func (c *Client) ArchiveEntry(ctx context.Context, fingerprint string) (ArchiveRecord, error) {
	var rec ArchiveRecord
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive/"+url.PathEscape(fingerprint), nil, &rec)
	return rec, err
}

// ArchiveSites fetches the per-site vulnerability ranking of one
// archived campaign. Entries archived without site sampling return an
// empty (non-null) ranking.
func (c *Client) ArchiveSites(ctx context.Context, fingerprint string) (ArchiveSites, error) {
	var sites ArchiveSites
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive/"+url.PathEscape(fingerprint)+"/sites", nil, &sites)
	return sites, err
}

// ArchiveTrends fetches the per-app outcome-rate and FPS-over-time
// series computed over the whole archive.
func (c *Client) ArchiveTrends(ctx context.Context) ([]AppTrend, error) {
	var trends []AppTrend
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive/trends", nil, &trends)
	return trends, err
}

// Watch streams a job's events, invoking fn for each one until the job
// reaches a terminal state, ctx is cancelled, or fn returns an error
// (which Watch returns). A dropped connection before the terminal event
// reconnects with the client's retry budget; a stream the daemon
// truncated for lagging reconnects immediately without consuming it. The
// server replays history on reconnect, so fn may observe duplicate state
// events (experiment events dedup server-side per connection, so fn
// should dedup by experiment ID across reconnects if it must count them
// exactly once). Watch returns the job's terminal status.
func (c *Client) Watch(ctx context.Context, id string, fn func(Event) error) (JobStatus, error) {
	attempt := 0
	for {
		terminal, err := c.watchOnce(ctx, id, fn)
		if errors.Is(err, ErrStreamTruncated) && ctx.Err() == nil {
			continue
		}
		if terminal || !retryable(err) {
			if err != nil {
				return JobStatus{}, err
			}
			return c.Job(ctx, id)
		}
		if attempt >= c.retries {
			return JobStatus{}, fmt.Errorf("client: watch job %s: %w", id, err)
		}
		select {
		case <-time.After(c.backoff << attempt):
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
		attempt++
	}
}

// watchOnce runs one streaming connection, alive for as long as ctx.
// terminal reports that the watch is over: a terminal event arrived, or fn
// returned the error. The coordinator follows a shard through it directly:
// its silence timer needs to see each connection end.
func (c *Client) watchOnce(ctx context.Context, id string, fn func(Event) error) (terminal bool, err error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	return ReadEvents(resp.Body, fn)
}

// Run is the full lifecycle in one call: submit the spec, watch its stream
// (fn may be nil), and fetch the final result, returned with the job's
// terminal status. A cancelled ctx leaves the job running on the daemon —
// cancel it explicitly for teardown. A job that settles as failed or
// cancelled returns an error carrying the terminal status.
func (c *Client) Run(ctx context.Context, spec JobSpec, fn func(Event) error) (*harness.CampaignResult, JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, st, err
	}
	final, err := c.Watch(ctx, st.ID, fn)
	if err != nil {
		return nil, final, err
	}
	if final.State != StateDone {
		return nil, final, fmt.Errorf("client: job %s settled as %s: %s", st.ID, final.State, final.Error)
	}
	res, err := c.Result(ctx, st.ID)
	return res, final, err
}
