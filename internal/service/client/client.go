// Package client is the typed Go client for faultpropd, the campaign
// service daemon (internal/service). It covers the whole job lifecycle —
// submit, watch the live event stream, cancel, fetch the final result —
// with context cancellation everywhere and bounded retry on transient
// failures of idempotent calls.
//
// The client speaks the versioned /v1 API. Error responses carry a wire
// code that the client maps back to the service sentinels, so
// errors.Is(err, service.ErrJobNotFound) (and the rest) hold across the
// HTTP transport.
package client

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
	"repro/internal/service"
)

// Client talks to one faultpropd instance.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	tenant  string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times idempotent requests are retried after
// transient failures (connection errors, 5xx). Default 3.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff, doubled per attempt. Default
// 100ms.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithTenant stamps every request with the given tenant identity
// (X-Faultprop-Tenant). The daemon accounts the tenant's submissions
// against its quota and rate limit; without this option, requests are
// charged to the "default" tenant.
func WithTenant(tenant string) Option { return func(c *Client) { c.tenant = tenant } }

// New creates a client for the daemon at base, e.g. "http://127.0.0.1:7207"
// (a bare host:port is given the http scheme).
func New(base string, opts ...Option) (*Client, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	c := &Client{
		base:    strings.TrimSuffix(u.String(), "/"),
		hc:      &http.Client{},
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
// sentinel — errors.Is(err, service.ErrJobNotFound) works through the
// transport.
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
func (e *APIError) Unwrap() error { return service.ErrorForCode(e.Code) }

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
// quota — clear as load drains) are transient; other 4xx are not.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests
	}
	return err != nil
}

// do runs one request and decodes a JSON response into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(service.TenantHeader, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

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
			return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), err)
		}
	}
}

// Submit queues a new campaign job. Submission is not idempotent, so it is
// never retried; callers that need at-most-once semantics on flaky links
// should list jobs before resubmitting.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Strata fetches a job's per-stratum vulnerability table: one row per
// instruction-class × execution-phase stratum with its outcome tally,
// vulnerability rate, and confidence-interval half-width. Populated once
// a stratified job is done; empty for non-stratified campaigns (and for
// daemons that predate the "adaptive" capability).
func (c *Client) Strata(ctx context.Context, id string) ([]harness.StratumReport, error) {
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, err
	}
	return st.Strata, nil
}

// Jobs lists every job the daemon knows.
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var list []service.JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs", nil, &list)
	return list, err
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st)
	return st, err
}

// Result fetches a done job's full campaign result.
func (c *Client) Result(ctx context.Context, id string) (*harness.CampaignResult, error) {
	var res harness.CampaignResult
	if err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Metrics fetches the service metrics document.
func (c *Client) Metrics(ctx context.Context) (service.Metrics, error) {
	var m service.Metrics
	err := c.doRetry(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// Version fetches the daemon's API version and capability list.
func (c *Client) Version(ctx context.Context) (service.VersionInfo, error) {
	var v service.VersionInfo
	err := c.doRetry(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
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
func (c *Client) Workers(ctx context.Context) ([]service.WorkerInfo, error) {
	var list []service.WorkerInfo
	err := c.doRetry(ctx, http.MethodGet, "/v1/workers", nil, &list)
	return list, err
}

// RegisterWorker adds (or revives) a peer worker on the daemon, making it
// a dispatch target for coordinated (Shards > 1) jobs. An empty name
// defaults to the worker URL's host:port.
func (c *Client) RegisterWorker(ctx context.Context, name, workerURL string) (service.WorkerInfo, error) {
	var info service.WorkerInfo
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
// service.ErrArchiveDisabled (through the wire code).
func (c *Client) Archive(ctx context.Context) (service.ArchiveList, error) {
	var list service.ArchiveList
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive", nil, &list)
	return list, err
}

// ArchiveEntry fetches one archived campaign by fingerprint (a job's
// JobStatus.Fingerprint): its metadata and full result.
func (c *Client) ArchiveEntry(ctx context.Context, fingerprint string) (service.ArchiveRecord, error) {
	var rec service.ArchiveRecord
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive/"+url.PathEscape(fingerprint), nil, &rec)
	return rec, err
}

// ArchiveSites fetches the per-site vulnerability ranking of one
// archived campaign. Entries archived without site sampling return an
// empty (non-null) ranking.
func (c *Client) ArchiveSites(ctx context.Context, fingerprint string) (service.ArchiveSites, error) {
	var sites service.ArchiveSites
	err := c.doRetry(ctx, http.MethodGet, "/v1/archive/"+url.PathEscape(fingerprint)+"/sites", nil, &sites)
	return sites, err
}

// ArchiveTrends fetches the per-app outcome-rate and FPS-over-time
// series computed over the whole archive.
func (c *Client) ArchiveTrends(ctx context.Context) ([]service.AppTrend, error) {
	var trends []service.AppTrend
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
func (c *Client) Watch(ctx context.Context, id string, fn func(service.Event) error) (service.JobStatus, error) {
	attempt := 0
	for {
		terminal, err := c.watchOnce(ctx, id, fn)
		if errors.Is(err, service.ErrStreamTruncated) && ctx.Err() == nil {
			continue
		}
		if terminal || !retryable(err) {
			if err != nil {
				return service.JobStatus{}, err
			}
			return c.Job(ctx, id)
		}
		if attempt >= c.retries {
			return service.JobStatus{}, fmt.Errorf("client: watch job %s: %w", id, err)
		}
		select {
		case <-time.After(c.backoff << attempt):
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		}
		attempt++
	}
}

// watchOnce runs one streaming connection. terminal reports that the
// watch is over: a terminal event arrived, or fn returned the error.
func (c *Client) watchOnce(ctx context.Context, id string, fn func(service.Event) error) (terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return false, fmt.Errorf("client: %w", err)
	}
	if c.tenant != "" {
		req.Header.Set(service.TenantHeader, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("client: watch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, apiError(resp)
	}
	return service.ReadEvents(resp.Body, fn)
}

// Run is the full lifecycle in one call: submit the spec, watch its stream
// (fn may be nil), and fetch the final result. A cancelled ctx leaves the
// job running on the daemon — cancel it explicitly for teardown. A job
// that settles as failed or cancelled returns an error carrying the
// terminal status.
func (c *Client) Run(ctx context.Context, spec service.JobSpec, fn func(service.Event) error) (*harness.CampaignResult, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	final, err := c.Watch(ctx, st.ID, fn)
	if err != nil {
		return nil, err
	}
	if final.State != service.StateDone {
		return nil, fmt.Errorf("client: job %s settled as %s: %s", st.ID, final.State, final.Error)
	}
	return c.Result(ctx, st.ID)
}
