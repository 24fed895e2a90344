package service

import (
	"errors"

	"repro/internal/harness"
)

// Sentinel errors for the service API. Handlers translate them to HTTP
// status codes plus a machine-readable "code" field in the JSON error
// body, and the typed client maps the code back to the same sentinels —
// so errors.Is(err, service.ErrJobNotFound) holds on both sides of the
// wire.
var (
	// ErrJobNotFound: the job ID names no known job.
	ErrJobNotFound = errors.New("service: no such job")
	// ErrQueueFull: the daemon's bounded queue rejected the submission;
	// retry later or raise -max-queue.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrInvalidSpec: the submitted JobSpec failed validation.
	ErrInvalidSpec = errors.New("service: invalid job spec")
	// ErrNoResult: the job has no stored result (not done, or a shard job
	// — those expose their journal instead).
	ErrNoResult = errors.New("service: job has no result")
	// ErrNoJournal: the job has no checkpoint journal to serve (not done
	// yet, or its journal is gone).
	ErrNoJournal = errors.New("service: job has no journal")
	// ErrWorkerNotFound: the worker name names no registered peer.
	ErrWorkerNotFound = errors.New("service: no such worker")
	// ErrFingerprintMismatch re-exports the harness sentinel: a shard,
	// journal, or partial belongs to a different campaign configuration.
	ErrFingerprintMismatch = harness.ErrFingerprintMismatch
	// ErrRateLimited: the tenant's submission token bucket is dry; retry
	// after a short backoff.
	ErrRateLimited = errors.New("service: tenant rate limit exceeded")
	// ErrQuotaExceeded: the tenant already has its quota of active jobs;
	// retry once some finish.
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
	// ErrArchiveDisabled: the daemon runs without a campaign archive
	// (no -archive-dir), so archive queries have nothing to answer.
	ErrArchiveDisabled = errors.New("service: campaign archive is disabled")
	// ErrNoArchiveEntry: the archive holds no (readable) entry for the
	// fingerprint.
	ErrNoArchiveEntry = errors.New("service: no archive entry for fingerprint")
)

// wireCodes maps sentinels to the stable "code" strings carried in error
// bodies (and in JobStatus.ErrorCode for failed jobs). Codes are API
// surface: never renumber, only add.
var wireCodes = []struct {
	err  error
	code string
}{
	{ErrJobNotFound, "job_not_found"},
	{ErrQueueFull, "queue_full"},
	{ErrInvalidSpec, "invalid_spec"},
	{ErrNoResult, "no_result"},
	{ErrNoJournal, "no_journal"},
	{ErrWorkerNotFound, "worker_not_found"},
	{ErrFingerprintMismatch, "fingerprint_mismatch"},
	{ErrRateLimited, "rate_limited"},
	{ErrQuotaExceeded, "quota_exceeded"},
	{ErrArchiveDisabled, "archive_disabled"},
	{ErrNoArchiveEntry, "no_archive_entry"},
}

// ErrorCode returns the wire code for err, or "" for errors with no
// stable code.
func ErrorCode(err error) string {
	for _, wc := range wireCodes {
		if errors.Is(err, wc.err) {
			return wc.code
		}
	}
	return ""
}

// ErrorForCode returns the sentinel for a wire code, or nil for unknown
// codes (including ""). The typed client chains the sentinel under its
// APIError so errors.Is sees through the HTTP transport.
func ErrorForCode(code string) error {
	for _, wc := range wireCodes {
		if wc.code == code {
			return wc.err
		}
	}
	return nil
}
