// Package service implements faultpropd, the campaign service daemon: a
// long-running HTTP server that accepts fault-injection campaign jobs over
// a JSON API, schedules them on a bounded worker pool with per-job
// priorities, persists every job through the harness checkpoint journal so
// a killed daemon resumes all in-flight work on restart, and streams live
// results (per-experiment summaries, progress metrics, final tallies) to
// any number of watchers.
//
// A daemon can also act as a shard coordinator: a job submitted with
// Shards > 1 runs through the same campaign engine and journal as a local
// job, but its experiments run as fingerprint-guarded shard jobs on
// registered peer workers (other faultpropd instances), whose journals
// fold into the job's own: its result is byte-identical to a
// single-process run.
//
// The HTTP surface, versioned under /v1/ (all request/response bodies are
// JSON; error bodies carry {"error": message, "code": machine-code}):
//
//	GET    /v1/version          API version and capability document
//	POST   /v1/jobs             submit a JobSpec, returns JobStatus
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/stream NDJSON event stream (SSE with Accept: text/event-stream)
//	GET    /v1/jobs/{id}/result final CampaignResult of a finished job, as the
//	                            bytes that were stored (compact JSON, no
//	                            trailing newline; 409 no_result for a cache
//	                            hit whose archive entry is gone or damaged)
//	GET    /v1/jobs/{id}/journal checkpoint journal of a done job (JSONL),
//	                            likewise the stored bytes (409 no_journal
//	                            until the job is done)
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	DELETE /v1/jobs/{id}        alias for cancel
//	GET    /v1/metrics          service metrics: JSON by default, the
//	                            Prometheus text form (with queue-wait,
//	                            shard-duration, and per-phase/per-outcome
//	                            experiment-latency histograms) on
//	                            ?format=prometheus or Accept: text/plain
//	GET    /v1/workers          list registered peer workers
//	POST   /v1/workers          register a peer worker {"name","url"}
//	DELETE /v1/workers/{name}   deregister a peer worker
//	GET    /v1/archive          campaign archive listing (entry metadata + totals)
//	GET    /v1/archive/trends   per-app outcome-rate and FPS-over-time series
//	GET    /v1/archive/{fp}     one archived campaign (metadata + full result)
//	GET    /v1/archive/{fp}/sites  per-site vulnerability ranking of an archived campaign
//	GET    /metrics             service metrics, Prometheus text format
//	GET    /healthz             liveness probe
//
// Submissions may carry an X-Faultprop-Trace header; the daemon stamps
// the trace (or a generated one) on the job's status, every stream
// event, its checkpoint journal header, and its log lines, and a
// coordinator forwards a per-shard span ("trace/sN") to its workers.
// An X-Faultprop-Tenant header attributes the submission to a tenant for
// admission control (per-tenant active-job quotas and token-bucket rate
// limits); without one, the "default" tenant is charged.
//
// When the daemon runs with an archive (-archive-dir), every completed
// campaign is committed to it keyed by configuration fingerprint, and a
// repeat submission of an identical fingerprint is answered from the
// archive: the job is born done (JobStatus.CacheHit) as a reference to
// the entry — its result is the entry's result bytes and its event stream
// replays the entry's journal, each verified against the entry's manifest
// when read and available for as long as the entry is. The pre-versioning /api/v1/* compat redirects were
// removed after their one promised release; clients speak /v1/*.
package service

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/harness"
)

// JobSpec is a campaign submission: the same knobs cmd/campaign exposes for
// a local run, minus scheduling concerns (worker counts and checkpoint
// paths belong to the daemon).
type JobSpec struct {
	// App names the proxy application (LULESH, LAMMPS, miniFE, AMG2013,
	// MCB).
	App string `json:"app"`
	// Scale selects the workload size: "default" (campaign scale, the
	// default) or "test" (unit-test scale).
	Scale string `json:"scale,omitempty"`
	// Runs is the number of injection experiments.
	Runs int `json:"runs"`
	// Seed drives all campaign randomness; a job is reproducible from its
	// spec alone.
	Seed uint64 `json:"seed"`
	// MultiFaultLambda, when positive, switches to Poisson multi-fault
	// mode.
	MultiFaultLambda float64 `json:"multiFaultLambda,omitempty"`
	// HangFactor multiplies the golden cycle count into the hang budget
	// (0: harness default).
	HangFactor float64 `json:"hangFactor,omitempty"`
	// SampleEvery subsamples CML traces (cycles between samples).
	SampleEvery uint64 `json:"sampleEvery,omitempty"`
	// MaxSummaries bounds retained per-experiment summaries (0: keep all).
	MaxSummaries int `json:"maxSummaries,omitempty"`
	// Snapshots, when positive, enables the snapshot-fork fast path:
	// experiments fork from the latest golden-state snapshot preceding their
	// faults instead of re-executing the clean prefix, and end at a later one
	// where every rank is back in the golden state. Every quiesce cut is
	// captured, whatever the value; 0 runs every experiment from step 0 to
	// its end. Purely a performance strategy — results are byte-identical
	// either way — so it is excluded from the campaign fingerprint and
	// coordinators may mix modes across workers.
	Snapshots int `json:"snapshots,omitempty"`
	// Priority orders the queue: higher runs first, ties run in submission
	// order.
	Priority int `json:"priority,omitempty"`
	// Label is a free-form operator annotation.
	Label string `json:"label,omitempty"`
	// Shards, when > 1, makes this a coordinated job: the daemon splits
	// every batch of the campaign's experiments into that many shard jobs,
	// dispatches them to its registered peer workers, and folds their
	// journals into its own, for a result byte-identical to an unsharded
	// run.
	Shards int `json:"shards,omitempty"`
	// Shard marks this job as one shard of a coordinated campaign. Set by
	// coordinators when dispatching to workers, not by end users; the
	// worker runs only the spec's experiments and exposes its journal
	// instead of a CampaignResult.
	Shard *harness.ShardSpec `json:"shard,omitempty"`
	// Sampling, when present, selects the adaptive stratified sampling
	// policy (daemons advertising the "adaptive" capability). The legacy
	// flat fields (Runs, Seed, MultiFaultLambda) remain authoritative for
	// the fixed-size portion of the policy; this object only adds the
	// adaptive knobs on top.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// SamplingSpec is the adaptive sampling policy of a JobSpec: the campaign
// stops each stratum once the vulnerability estimate is tight enough
// instead of spending the whole Runs budget. Runs stays the hard budget
// ceiling.
type SamplingSpec struct {
	// TargetCI, in (0, 1), is the target 95% Wilson confidence-interval
	// half-width per stratum; 0 disables adaptive stopping.
	TargetCI float64 `json:"targetCI,omitempty"`
	// Strata is the number of golden-execution phases per instruction
	// class used to stratify injection sites (0: harness default).
	Strata int `json:"strata,omitempty"`
	// Sites enables per-site propagation analytics (daemons advertising the
	// "sites" capability): every experiment is attributed to the static
	// injection site of its first fault and the result carries a
	// Wilson-ranked per-site vulnerability table, also served from
	// GET /v1/archive/{fingerprint}/sites.
	Sites bool `json:"sites,omitempty"`
	// Protect lists static fim_inj site ordinals to protect (strictly
	// ascending): the transform corrects any flip at a listed site right
	// after the injection point — the selective-protection scenario. It
	// changes the program under test, so it is part of the campaign
	// fingerprint.
	Protect []int `json:"protect,omitempty"`
}

// Adaptive reports whether the spec requests adaptive sequential stopping.
func (s JobSpec) Adaptive() bool {
	return s.Sampling != nil && s.Sampling.TargetCI > 0
}

// CampaignConfig translates the spec into the harness configuration that a
// local run with the same flags would produce, so results are identical
// across transports. Scheduling fields (Workers, Checkpoint, Gate,
// Progress, hooks) are left for the scheduler to fill in. It is the one
// spec validator: it checks what a spec alone has (app, scale, sharding),
// then validates the configuration. Violations wrap ErrInvalidSpec, and a
// configuration's harness.FieldError as well.
func (s JobSpec) CampaignConfig() (harness.CampaignConfig, error) {
	app := apps.ByName(s.App)
	switch {
	case app == nil:
		return harness.CampaignConfig{}, fmt.Errorf("%w: unknown app %q", ErrInvalidSpec, s.App)
	case s.Scale != "" && s.Scale != "default" && s.Scale != "test":
		return harness.CampaignConfig{}, fmt.Errorf("%w: unknown scale %q (want default or test)", ErrInvalidSpec, s.Scale)
	case s.Shards < 0:
		return harness.CampaignConfig{}, fmt.Errorf("%w: shards must be >= 0", ErrInvalidSpec)
	case s.Shards > 1 && s.Shard != nil:
		return harness.CampaignConfig{}, fmt.Errorf("%w: shards and shard are mutually exclusive", ErrInvalidSpec)
	case s.Shard != nil && (s.Shard.From < 0 || s.Shard.From > s.Shard.To || s.Shard.To > s.Runs):
		return harness.CampaignConfig{}, fmt.Errorf("%w: shard range [%d,%d) outside campaign [0,%d)",
			ErrInvalidSpec, s.Shard.From, s.Shard.To, s.Runs)
	}
	p := app.DefaultParams()
	if s.Scale == "test" {
		p = app.TestParams()
	}
	var sampling SamplingSpec
	if s.Sampling != nil {
		sampling = *s.Sampling
	}
	cfg := harness.CampaignConfig{
		App:     app,
		Params:  p,
		Protect: sampling.Protect,
		Sampling: harness.Sampling{
			Runs:             s.Runs,
			Seed:             s.Seed,
			MultiFaultLambda: s.MultiFaultLambda,
			TargetCI:         sampling.TargetCI,
			Strata:           sampling.Strata,
			Sites:            sampling.Sites,
		},
		Execution: harness.Execution{
			HangFactor:  s.HangFactor,
			SampleEvery: s.SampleEvery,
			Snapshots:   s.Snapshots,
		},
		Retention: harness.Retention{MaxSummaries: s.MaxSummaries},
	}
	if err := cfg.Validate(); err != nil {
		return harness.CampaignConfig{}, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return cfg, nil
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateQueued: accepted, waiting for a job slot. Jobs that were running
	// when the daemon stopped return to StateQueued with their journal
	// intact and resume from it.
	StateQueued JobState = "queued"
	// StateRunning: executing experiments.
	StateRunning JobState = "running"
	// StateDone: completed every run; the result is fetchable.
	StateDone JobState = "done"
	// StateFailed: the campaign returned an error other than cancellation.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by a client; terminal.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the client-visible record of one job.
type JobStatus struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started"`
	// Finished is set on terminal states; for a job returned to the queue
	// by a daemon restart it stays zero.
	Finished time.Time `json:"finished"`
	Error    string    `json:"error,omitempty"`
	// ErrorCode is the machine-readable code of Error when the failure
	// maps to a service sentinel (see ErrorForCode); coordinators use it
	// to tell a retryable worker failure from a fatal one (e.g.
	// "fingerprint_mismatch") without string matching.
	ErrorCode string `json:"errorCode,omitempty"`
	// Resumed counts the experiments the job's last (re)start did not
	// execute: for a whole or shard job, those replayed from its checkpoint
	// journal, its family seed's included. Nonzero after a daemon restart
	// or a seeding from the archive; it equals Progress.Resumed.
	Resumed int `json:"resumed,omitempty"`
	// Trace is the job's span ID: taken from the submitter's
	// X-Faultprop-Trace header when present (so one trace follows a
	// campaign coordinator→worker), generated otherwise. It is stamped
	// into the job's events, its checkpoint journal header, and the
	// daemon's structured logs.
	Trace string `json:"trace,omitempty"`
	// Tenant is the submitting tenant (the X-Faultprop-Tenant header;
	// "default" when none was sent) — the unit of admission control:
	// per-tenant quotas and rate limits account here.
	Tenant string `json:"tenant,omitempty"`
	// Fingerprint is the job's archive cache key: the campaign
	// configuration fingerprint, suffixed "-max<N>" when MaxSummaries
	// caps the retained summaries (that cap shapes the stored result but
	// is outside the fingerprint). Identical fingerprints are identical
	// campaigns; GET /v1/archive/{fingerprint} finds the archived result.
	// Empty for shard jobs, which are never archived whole.
	Fingerprint string `json:"fingerprint,omitempty"`
	// CacheHit marks a job served straight from the campaign archive: it
	// was born terminal, and its result and history are those of the
	// archive entry Fingerprint names, byte-identical to the original
	// run's for as long as that entry exists.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Progress is a live snapshot while the job runs. A campaign that ran
	// to done keeps its last, across restarts too: its resumed count,
	// golden exits and rate (a cache hit ran nothing and has none).
	Progress *harness.Snapshot `json:"progress,omitempty"`
	// Tally and FPS summarize a done job (the full CampaignResult is at
	// /v1/jobs/{id}/result; shard jobs expose /v1/jobs/{id}/journal and
	// leave FPS zero — the model is only built by the coordinator).
	Tally *classify.Tally `json:"tally,omitempty"`
	FPS   float64         `json:"fps,omitempty"`
	// Timings are a done shard job's phase-latency histograms, which its
	// coordinator absorbs into its own metrics: a journal does not carry
	// them.
	Timings *harness.CampaignTimings `json:"timings,omitempty"`
	// Strata is the per-stratum vulnerability table of a done stratified
	// job: one row per instruction-class × execution-phase stratum with
	// its tally, vulnerability rate, and CI half-width.
	Strata []harness.StratumReport `json:"strata,omitempty"`
}

// EventKind discriminates stream events.
type EventKind string

const (
	// EventState: the job changed lifecycle state (Status carries it).
	EventState EventKind = "state"
	// EventExperiment: one experiment completed (replayed journal records
	// stream first on resume, flagged Resumed).
	EventExperiment EventKind = "experiment"
	// EventProgress: a periodic progress snapshot.
	EventProgress EventKind = "progress"
	// EventResult: the job finished; Tally and FPS carry the final
	// aggregate. Always the last event of a successful stream.
	EventResult EventKind = "result"
	// EventTruncated: this watcher lagged too far behind a running job and
	// the daemon dropped it to protect the stream. Always the last event
	// of a truncated stream; the job itself keeps running. Clients should
	// reconnect — the journal replay on resubscribe restores every missed
	// experiment, deduplicated by experiment ID.
	EventTruncated EventKind = "truncated"
)

// Event is one NDJSON stream record.
type Event struct {
	Kind EventKind `json:"kind"`
	Job  string    `json:"job"`
	// Seq orders events within one job's stream.
	Seq uint64 `json:"seq"`
	// Trace is the job's span ID, stamped on every event by the hub.
	Trace      string            `json:"trace,omitempty"`
	State      JobState          `json:"state,omitempty"`
	Error      string            `json:"error,omitempty"`
	Experiment *ExperimentEvent  `json:"experiment,omitempty"`
	Progress   *harness.Snapshot `json:"progress,omitempty"`
	Tally      *classify.Tally   `json:"tally,omitempty"`
	FPS        float64           `json:"fps,omitempty"`
}

// ExperimentEvent condenses one completed experiment for streaming; the
// full summaries live in the job's result.
type ExperimentEvent struct {
	ID      int    `json:"id"`
	Outcome string `json:"outcome"`
	Rank    int    `json:"rank"`
	Cycle   uint64 `json:"cycle,omitempty"`
	Fired   bool   `json:"fired"`
	MaxCML  int    `json:"maxCML,omitempty"`
	// Resumed marks records delivered from the checkpoint journal (a
	// daemon restart, or a watcher attaching after the experiment ran)
	// rather than observed live.
	Resumed bool `json:"resumed,omitempty"`
}

// APIVersion is the current HTTP API version prefix.
const APIVersion = "v1"

// VersionInfo is the GET /v1/version capability document: what API this
// daemon speaks and which optional features it supports. Clients and
// coordinators feature-detect from Capabilities instead of sniffing
// routes.
type VersionInfo struct {
	Service string `json:"service"`
	// API is the version prefix ("v1").
	API string `json:"api"`
	// Capabilities lists supported feature tags: "jobs", "stream",
	// "metrics", "journals" (serves a done job's checkpoint journal; a
	// coordinator dispatches only to workers that do), "shards" (accepts
	// shard jobs),
	// "coordinate" (decomposes Shards > 1 jobs across peer workers),
	// "adaptive" (accepts JobSpec.Sampling adaptive stopping policies).
	Capabilities []string `json:"capabilities"`
}

// Metrics is the /v1/metrics document.
type Metrics struct {
	// QueueDepth counts jobs waiting for a slot; RunningJobs counts jobs
	// currently executing.
	QueueDepth  int `json:"queueDepth"`
	RunningJobs int `json:"runningJobs"`
	// JobSlots and WorkerPool echo the daemon's configured capacity.
	JobSlots   int `json:"jobSlots"`
	WorkerPool int `json:"workerPool"`
	// WorkersBusy counts experiments executing right now on this daemon,
	// across all jobs: the worker pool's tokens held. A coordinated job's
	// shards execute on its peers and count there.
	WorkersBusy int `json:"workersBusy"`
	// Utilization is WorkersBusy over WorkerPool, in [0, 1].
	Utilization float64 `json:"utilization"`
	// RunsPerSec sums the live throughput of all running jobs.
	RunsPerSec float64 `json:"runsPerSec"`
	// JobsDone/Failed/Cancelled count terminal jobs this daemon lifetime
	// plus those loaded from the store.
	JobsDone      int `json:"jobsDone"`
	JobsFailed    int `json:"jobsFailed"`
	JobsCancelled int `json:"jobsCancelled"`
	// StreamDrops counts event-stream subscribers disconnected for
	// lagging (they receive EventTruncated and are expected to
	// reconnect).
	StreamDrops uint64 `json:"streamDrops"`
	// CacheHits counts submissions served straight from the campaign
	// archive; CacheMisses counts submissions that ran fresh with an
	// archive configured (absent or corrupt entry).
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// ArchiveEntries and ArchiveBytes size the campaign archive (zero
	// when the daemon runs without one).
	ArchiveEntries int   `json:"archiveEntries"`
	ArchiveBytes   int64 `json:"archiveBytes"`
	// RestoreBytes totals the bytes copied by snapshot-fork restores
	// (local experiments plus absorbed shard timings): every fork copies
	// its snapshot's whole backing, a few KiB per rank.
	RestoreBytes uint64 `json:"restoreBytes"`
	// GoldenExits counts experiments (local plus absorbed shard timings)
	// that ended at a captured cut where every rank was back in the golden
	// state instead of executing the golden tail.
	GoldenExits uint64 `json:"goldenExits"`
	// Outcomes counts completed experiments per outcome class, summed over
	// terminal tallies and live progress.
	Outcomes map[string]int `json:"outcomes"`
	// Jobs carries per-job progress for queued and running jobs.
	Jobs []JobMetrics `json:"jobs"`
}

// JobMetrics is one queued or running job inside Metrics.
type JobMetrics struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Priority   int      `json:"priority"`
	Done       int      `json:"done"`
	Total      int      `json:"total"`
	Resumed    int      `json:"resumed,omitempty"`
	RunsPerSec float64  `json:"runsPerSec,omitempty"`
}
