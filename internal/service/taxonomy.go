package service

import (
	"context"
	"errors"
	"net"

	"repro/internal/archive"
	"repro/internal/harness"
)

// Failure taxonomy. Every error the service routes — a shard dispatch
// failing, a worker job settling failed, an admission rejection — is
// classified into one of four categories, and the category alone decides
// the route:
//
//	Transient  infrastructure hiccups (network failures, timeouts, an
//	           overloaded peer answering 429/5xx, a full queue): retry
//	           with backoff, and mark the implicated worker dead so new
//	           work routes around it until a heartbeat revives it.
//	Retriable  failures that may clear on their own without implicating
//	           infrastructure (an interrupted campaign, a worker job
//	           cancelled out from under us): retry with backoff, but do
//	           not dead-mark the worker.
//	Permanent  configuration errors (invalid spec, unknown job, any
//	           other 4xx): reject immediately with the wire code — no
//	           amount of retrying fixes a wrong request.
//	Fatal      integrity violations (fingerprint mismatch, corrupt
//	           archive entry): halt the job at once; retrying could
//	           silently mix incompatible results.
//
// When several failures aggregate into one verdict (a multi-shard job),
// precedence is FATAL > PERMANENT > RETRIABLE > TRANSIENT: the worst
// category observed determines the outcome.
type Category int

// Categories, declared in ascending precedence: the worst is the max.
const (
	CategoryNone Category = iota
	CategoryTransient
	CategoryRetriable
	CategoryPermanent
	CategoryFatal
)

func (c Category) String() string {
	switch c {
	case CategoryTransient:
		return "transient"
	case CategoryRetriable:
		return "retriable"
	case CategoryPermanent:
		return "permanent"
	case CategoryFatal:
		return "fatal"
	default:
		return "none"
	}
}

// Classify maps an error to its taxonomy category. nil maps to
// CategoryNone; an unrecognizable error defaults to CategoryRetriable —
// the conservative route: it retries a bounded number of times without
// condemning a worker or a spec on no evidence.
func Classify(err error) Category {
	if err == nil {
		return CategoryNone
	}
	// Integrity first: a fingerprint mismatch or corrupt archive entry
	// must halt even when wrapped in transport errors.
	if errors.Is(err, ErrFingerprintMismatch) || errors.Is(err, archive.ErrCorrupt) {
		return CategoryFatal
	}
	switch {
	case errors.Is(err, ErrInvalidSpec),
		errors.Is(err, ErrJobNotFound),
		errors.Is(err, ErrWorkerNotFound),
		errors.Is(err, ErrNoResult),
		errors.Is(err, ErrNoJournal),
		errors.Is(err, ErrNoArchiveEntry),
		errors.Is(err, ErrArchiveDisabled):
		return CategoryPermanent
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrRateLimited),
		errors.Is(err, ErrQuotaExceeded),
		errors.Is(err, context.DeadlineExceeded):
		// Pressure rejections clear as load drains: quota frees when jobs
		// finish, token buckets refill, queues empty.
		return CategoryTransient
	case errors.Is(err, harness.ErrInterrupted):
		return CategoryRetriable
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		// A response without a wire code (the sentinels above caught the
		// coded ones) routes by status: 429 and 5xx are the daemon saying
		// "not now"; other 4xx mean the request itself is wrong and a retry
		// would repeat the mistake.
		if apiErr.Status == 429 || apiErr.Status >= 500 {
			return CategoryTransient
		}
		if apiErr.Status >= 400 {
			return CategoryPermanent
		}
		return CategoryRetriable
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return CategoryTransient
	}
	return CategoryRetriable
}

// ClassifyCode maps a wire error code (JobStatus.ErrorCode of a failed
// job) to its category. An empty or unknown code classifies Retriable:
// the failure reproduced no recognizable cause, so it gets bounded
// retries without dead-marking anything.
func ClassifyCode(code string) Category {
	if code == "" {
		return CategoryRetriable
	}
	if err := ErrorForCode(code); err != nil {
		return Classify(err)
	}
	return CategoryRetriable
}
