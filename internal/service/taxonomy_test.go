package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/archive"
	"repro/internal/harness"
)

// TestClassifyCategories pins the taxonomy: every routed error lands in
// exactly one of the four categories, including when wrapped, and
// unknown errors take the conservative Retriable default.
func TestClassifyCategories(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Category
	}{
		{"nil", nil, CategoryNone},

		// Fatal: integrity violations halt the job.
		{"fingerprint mismatch", ErrFingerprintMismatch, CategoryFatal},
		{"corrupt archive entry", archive.ErrCorrupt, CategoryFatal},
		{"wrapped fingerprint mismatch",
			fmt.Errorf("shard 3: %w", ErrFingerprintMismatch), CategoryFatal},

		// Permanent: configuration errors reject immediately.
		{"invalid spec", ErrInvalidSpec, CategoryPermanent},
		{"job not found", ErrJobNotFound, CategoryPermanent},
		{"worker not found", ErrWorkerNotFound, CategoryPermanent},
		{"no result", ErrNoResult, CategoryPermanent},
		{"no partial", ErrNoPartial, CategoryPermanent},
		{"no archive entry", ErrNoArchiveEntry, CategoryPermanent},
		{"archive disabled", ErrArchiveDisabled, CategoryPermanent},
		{"peer 404", &APIError{Status: 404, Message: "no such job"}, CategoryPermanent},
		{"wrapped invalid spec",
			fmt.Errorf("submit: %w", ErrInvalidSpec), CategoryPermanent},

		// Transient: infrastructure pressure clears as load drains.
		{"queue full", ErrQueueFull, CategoryTransient},
		{"rate limited", ErrRateLimited, CategoryTransient},
		{"quota exceeded", ErrQuotaExceeded, CategoryTransient},
		{"deadline exceeded", context.DeadlineExceeded, CategoryTransient},
		{"peer 429", &APIError{Status: 429, Message: "slow down"}, CategoryTransient},
		{"peer 500", &APIError{Status: 500, Message: "boom"}, CategoryTransient},
		{"peer 503", &APIError{Status: 503, Message: "draining"}, CategoryTransient},
		{"net error",
			&net.OpError{Op: "dial", Err: errors.New("connection refused")},
			CategoryTransient},

		// Retriable: may clear on its own; no worker implicated.
		{"interrupted campaign", harness.ErrInterrupted, CategoryRetriable},
		{"unknown error", errors.New("something odd"), CategoryRetriable},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestClassifyClientErrorsByStatus: what the client returns for a response
// that carries no wire code — a proxy's or a draining daemon's answer —
// routes by its status for every holder of a Client, as it always did for
// the coordinator: 429 and 5xx are Transient, any other 4xx is Permanent.
func TestClassifyClientErrorsByStatus(t *testing.T) {
	for status, want := range map[int]Category{
		http.StatusServiceUnavailable: CategoryTransient,
		http.StatusTooManyRequests:    CategoryTransient,
		http.StatusNotFound:           CategoryPermanent,
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
		}))
		c, err := NewClient(hs.URL, WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Job(context.Background(), "1")
		hs.Close()
		if got := Classify(err); got != want {
			t.Errorf("Classify(client error for a bare %d: %v) = %s, want %s", status, err, got, want)
		}
	}
}

// TestClassifyCode maps wire codes (from failed worker jobs) through the
// same taxonomy, with empty/unknown codes defaulting to Retriable.
func TestClassifyCode(t *testing.T) {
	cases := []struct {
		code string
		want Category
	}{
		{"fingerprint_mismatch", CategoryFatal},
		{"invalid_spec", CategoryPermanent},
		{"job_not_found", CategoryPermanent},
		{"queue_full", CategoryTransient},
		{"rate_limited", CategoryTransient},
		{"quota_exceeded", CategoryTransient},
		{"", CategoryRetriable},
		{"some_future_code", CategoryRetriable},
	}
	for _, tc := range cases {
		if got := ClassifyCode(tc.code); got != tc.want {
			t.Errorf("ClassifyCode(%q) = %s, want %s", tc.code, got, tc.want)
		}
	}
}

// TestAggregatePrecedence pins FATAL > PERMANENT > RETRIABLE > TRANSIENT:
// when failures from many shards fold into one verdict, the worst
// category observed wins regardless of order or multiplicity.
func TestAggregatePrecedence(t *testing.T) {
	// The precedence chain itself.
	if !(CategoryFatal > CategoryPermanent &&
		CategoryPermanent > CategoryRetriable &&
		CategoryRetriable > CategoryTransient &&
		CategoryTransient > CategoryNone) {
		t.Fatal("category constants are not ordered FATAL > PERMANENT > RETRIABLE > TRANSIENT > none")
	}

	cases := []struct {
		name string
		in   []Category
		want Category
	}{
		{"empty", nil, CategoryNone},
		{"single transient", []Category{CategoryTransient}, CategoryTransient},
		{"retriable beats transient",
			[]Category{CategoryTransient, CategoryRetriable, CategoryTransient},
			CategoryRetriable},
		{"permanent beats retriable",
			[]Category{CategoryRetriable, CategoryPermanent, CategoryTransient},
			CategoryPermanent},
		{"fatal beats everything",
			[]Category{CategoryTransient, CategoryFatal, CategoryPermanent, CategoryRetriable},
			CategoryFatal},
		{"order independent",
			[]Category{CategoryFatal, CategoryTransient},
			CategoryFatal},
	}
	for _, tc := range cases {
		if got := Aggregate(tc.in...); got != tc.want {
			t.Errorf("Aggregate(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCategoryStrings: the String form appears in logs and error
// messages; keep it stable.
func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CategoryNone:      "none",
		CategoryTransient: "transient",
		CategoryRetriable: "retriable",
		CategoryPermanent: "permanent",
		CategoryFatal:     "fatal",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
}
