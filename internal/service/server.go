package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Config sizes a Server.
type Config struct {
	// Dir is the job store directory (status records, checkpoint journals,
	// results). Required.
	Dir string
	// JobSlots bounds concurrently running campaigns (0: 2).
	JobSlots int
	// WorkerPool bounds total experiment parallelism across all running
	// campaigns, shared fairly through a token gate (0: GOMAXPROCS).
	WorkerPool int
	// ProgressEvery is the interval between streamed progress events for a
	// running job (0: 500ms); a coordinator also publishes its merged
	// progress at this pace and scales its re-dispatch backoff by it.
	// Nothing on a job's completion path waits for it.
	ProgressEvery time.Duration
	// MaxQueue bounds jobs waiting for a slot; submissions beyond it are
	// rejected with ErrQueueFull (0: unbounded).
	MaxQueue int
	// Peers pre-registers worker URLs for coordinated (sharded) jobs;
	// more can be added at runtime via POST /v1/workers.
	Peers []string
	// Heartbeat is the interval between liveness probes of registered
	// workers (0: 2s). A worker that fails a probe is marked dead: it
	// receives no new shards and its in-flight shards re-dispatch. It is
	// also how long a shard's event stream may stay silent before the
	// coordinator probes that shard's worker itself.
	Heartbeat time.Duration
	// Log receives the daemon's structured logs: request lines, job
	// lifecycle, worker liveness transitions, slow-experiment warnings
	// (nil: discard).
	Log *slog.Logger
	// SlowExperiment, when positive, logs a warning for any experiment
	// whose wall time meets or exceeds it (0: disabled).
	SlowExperiment time.Duration
	// StreamBuffer sizes each event-stream subscriber's channel (0: 256).
	// A subscriber that falls this many events behind is disconnected with
	// an explicit "truncated" event and counted in the stream-drop metric.
	StreamBuffer int
	// ArchiveDir, when set, enables the persistent campaign archive:
	// completed jobs are committed to it keyed by their cache key
	// (campaign fingerprint, plus a -max<N> suffix when MaxSummaries
	// shapes the retained summaries), and a repeat submission of an
	// identical key is served straight from the archive as a cache hit —
	// byte-identical result, journal replayed for watchers, surviving
	// daemon restarts. Hit jobs read the archive for as long as they are
	// asked for, so a daemon keeps the ArchiveDir it handed them out from.
	// Empty disables archiving and the /v1/archive API.
	ArchiveDir string
	// TenantQuota bounds each tenant's concurrently active (non-terminal)
	// jobs; submissions beyond it are rejected with ErrQuotaExceeded
	// (0: unlimited).
	TenantQuota int
	// TenantRate is each tenant's sustained submission rate in jobs per
	// second, enforced by a token bucket (0: unlimited).
	TenantRate float64
	// TenantBurst is the token bucket's capacity — how many submissions a
	// tenant can burst above the sustained rate (0: max(TenantRate, 1)).
	TenantBurst int
}

// Server is the faultpropd campaign service: it owns the job store, the
// scheduler, and the HTTP API. Create with New, call Start to recover
// persisted jobs and begin dispatching, serve Handler over HTTP, and stop
// with Drain.
type Server struct {
	cfg       Config
	store     *Store
	sched     *scheduler
	gate      chan struct{}
	mux       *http.ServeMux
	registry  *registry
	hbStop    context.CancelFunc
	obs       *serverObs
	log       *slog.Logger
	archive   *archive.Archive
	admission *admission

	mu   sync.Mutex
	jobs map[string]*job
}

// New creates a Server over the given store directory. Call Start before
// serving traffic.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: Config.Dir is required")
	}
	if cfg.JobSlots <= 0 {
		cfg.JobSlots = 2
	}
	if cfg.WorkerPool <= 0 {
		cfg.WorkerPool = runtime.GOMAXPROCS(0)
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 500 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.StreamBuffer <= 0 {
		cfg.StreamBuffer = defaultSubscriberBuffer
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		gate:      make(chan struct{}, cfg.WorkerPool),
		jobs:      make(map[string]*job),
		registry:  newRegistry(),
		obs:       newServerObs(),
		log:       cfg.Log,
		admission: newAdmission(cfg.TenantRate, cfg.TenantBurst),
	}
	if cfg.ArchiveDir != "" {
		arch, err := archive.Open(cfg.ArchiveDir)
		if err != nil {
			return nil, err
		}
		s.archive = arch
		// Size gauges read the archive lazily at scrape time, so they stay
		// honest across restarts and external cleanup.
		s.obs.reg.GaugeFunc("faultpropd_archive_entries",
			"Entries in the campaign archive.", func() float64 {
				entries, _ := arch.Stats()
				return float64(entries)
			})
		s.obs.reg.GaugeFunc("faultpropd_archive_bytes",
			"Total on-disk bytes of the campaign archive.", func() float64 {
				_, bytes := arch.Stats()
				return float64(bytes)
			})
	}
	for _, p := range cfg.Peers {
		if _, err := s.registry.add("", p); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.WorkerPool; i++ {
		s.gate <- struct{}{}
	}
	s.sched = newScheduler(cfg.JobSlots, s.runJob)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Start recovers persisted jobs and begins dispatching. Jobs that were
// queued or running when the previous daemon stopped return to the queue
// and resume from their checkpoint journals: completed experiments replay
// from disk instead of re-running.
func (s *Server) Start() error {
	persisted, err := s.store.LoadAll()
	if err != nil {
		return err
	}
	for _, st := range persisted {
		j := &job{status: st, hub: newHub(st.Trace, s.cfg.StreamBuffer, s.obs.streamDrops)}
		if st.State.Terminal() {
			j.hub.close()
			s.mu.Lock()
			s.jobs[st.ID] = j
			s.mu.Unlock()
			continue
		}
		j.status.State = StateQueued
		j.status.Started = time.Time{}
		j.status.Progress = nil
		if err := s.store.SaveStatus(j.status); err != nil {
			return err
		}
		s.mu.Lock()
		s.jobs[st.ID] = j
		s.mu.Unlock()
		j.noteQueued()
		s.sched.enqueue(j)
		s.log.Info("job recovered", "job", st.ID, "trace", st.Trace)
	}
	s.sched.start()
	hbCtx, hbStop := context.WithCancel(context.Background())
	s.hbStop = hbStop
	go s.heartbeatLoop(hbCtx)
	return nil
}

// Drain gracefully stops the server: no new jobs are dispatched, running
// campaigns are interrupted (their journals hold every completed
// experiment and their status records return to queued), and Drain waits
// for them to settle or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	if s.hbStop != nil {
		s.hbStop()
	}
	s.sched.drain()
	s.mu.Lock()
	for _, j := range s.jobs {
		j.requestStop(stopDrain)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.sched.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Submit validates and persists a new job and queues it for execution.
// When the daemon's queue bound (Config.MaxQueue) is reached the
// submission is rejected with ErrQueueFull. The job gets a fresh trace
// ID and is accounted to the default tenant; SubmitTenant carries both.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitTenant(spec, "", "")
}

// SubmitTenant is the full submission path: validate, admit the tenant
// (token-bucket rate limit, active-job quota), consult the campaign
// archive — an archived identical configuration is served directly as a
// terminal cache-hit job — and otherwise queue a fresh run. An empty
// trace gets a fresh ID; an empty tenant is the default tenant. The
// trace is stamped into the job's status, events, journal header, and
// log lines.
func (s *Server) SubmitTenant(spec JobSpec, trace, tenant string) (JobStatus, error) {
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return JobStatus{}, err
	}
	tenant = cleanTenant(tenant)
	// Shard jobs are a coordinator's internal decomposition: admission was
	// already charged to the parent job on the coordinator, and caching
	// whole campaigns under partial-campaign keys would be wrong.
	if spec.Shard == nil {
		if err := s.admit(tenant); err != nil {
			s.log.Warn("submission rejected", "tenant", tenant,
				"category", Classify(err).String(), "err", err)
			return JobStatus{}, err
		}
	}
	if spec.Scale == "" {
		spec.Scale = "default"
	}
	if trace = obs.CleanTrace(trace); trace == "" {
		trace = obs.NewTraceID()
	}
	// Shard jobs are partial campaigns: never archived, never served whole.
	var key string
	if spec.Shard == nil {
		key = cfg.ArchiveKey()
	}
	lookup := time.Now()
	if rec := s.lookupCache(key, trace); rec != nil {
		st, err := s.serveCached(spec, trace, tenant, key, rec)
		if err == nil {
			s.obs.cacheHit.ObserveDuration(time.Since(lookup))
			return st, nil
		}
		// A hit that failed to materialize (undecodable entry, store I/O)
		// falls through to a fresh run rather than failing the submission.
		s.log.Warn("cache hit not served, running fresh", "trace", trace,
			"fingerprint", key, "err", err)
	}
	// The queue bound applies only to jobs that would actually queue —
	// cache hits above consume no slot.
	if s.cfg.MaxQueue > 0 {
		if queued, _ := s.sched.counts(); queued >= s.cfg.MaxQueue {
			return JobStatus{}, fmt.Errorf("%w: %d jobs queued (max %d)",
				ErrQueueFull, queued, s.cfg.MaxQueue)
		}
	}
	j := &job{
		status: JobStatus{
			ID:          s.store.NewID(),
			Spec:        spec,
			State:       StateQueued,
			Created:     time.Now().UTC(),
			Trace:       trace,
			Tenant:      tenant,
			Fingerprint: key,
		},
		hub: newHub(trace, s.cfg.StreamBuffer, s.obs.streamDrops),
	}
	if err := s.store.SaveStatus(j.status); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[j.status.ID] = j
	s.mu.Unlock()
	j.noteQueued()
	s.sched.enqueue(j)
	s.log.Info("job submitted", "job", j.status.ID, "trace", trace, "tenant", tenant,
		"runs", spec.Runs, "shards", spec.Shards, "priority", spec.Priority)
	return j.snapshot(), nil
}

// Cancel stops a queued or running job. Cancelling a terminal job is a
// no-op that returns its current status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	j := s.job(id)
	if j == nil {
		return JobStatus{}, ErrJobNotFound
	}
	if s.sched.remove(j) {
		j.mu.Lock()
		j.status.State = StateCancelled
		j.status.Finished = time.Now().UTC()
		st := j.status
		j.mu.Unlock()
		if err := s.store.SaveStatus(st); err != nil {
			return st, err
		}
		j.hub.publish(Event{Kind: EventState, Job: st.ID, State: StateCancelled})
		j.hub.close()
		return st, nil
	}
	j.requestStop(stopCancel)
	return j.snapshot(), nil
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	j := s.job(id)
	if j == nil {
		return JobStatus{}, ErrJobNotFound
	}
	return j.snapshot(), nil
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	list := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		list = append(list, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(list))
	for i, j := range list {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(i, k int) bool {
		a, _ := strconv.Atoi(out[i].ID)
		b, _ := strconv.Atoi(out[k].ID)
		return a < b
	})
	return out
}

// Result returns a done job's campaign result as the bytes finish stored:
// the job store's file or, for a cache hit, the archive entry's, verified
// on this read. ErrNoResult when the job is known but has no result (not
// done yet; a shard job — those expose a partial instead; a cache hit
// whose archive entry is gone or damaged).
func (s *Server) Result(id string) ([]byte, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrJobNotFound
	}
	st := j.snapshot()
	if st.CacheHit {
		data, err := s.entryFile(st, archive.ResultFile)
		if err != nil {
			// %v: a corrupt entry under a fetch must not route Fatal.
			return nil, fmt.Errorf("%w: job %s: entry %s: %v", ErrNoResult, id, st.Fingerprint, err)
		}
		return data, nil
	}
	data, err := os.ReadFile(s.store.resultPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: job %s (state %s)", ErrNoResult, id, st.State)
	}
	return data, err
}

// Partial returns a done shard job's mergeable partial aggregate as the
// bytes that were stored. ErrNoPartial when the job is known but stored no
// partial (not a shard job, or not done yet).
func (s *Server) Partial(id string) ([]byte, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrJobNotFound
	}
	data, err := os.ReadFile(s.store.partialPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: job %s (state %s)", ErrNoPartial, id, j.snapshot().State)
	}
	return data, err
}

// Workers lists the registered peer workers.
func (s *Server) Workers() []WorkerInfo { return s.registry.list() }

// RegisterWorker adds (or revives) a peer worker for coordinated jobs.
func (s *Server) RegisterWorker(name, url string) (WorkerInfo, error) {
	return s.registry.add(name, url)
}

// RemoveWorker deregisters a peer worker. In-flight shards on it finish
// or re-dispatch on their own; it just receives no new ones.
func (s *Server) RemoveWorker(name string) error { return s.registry.remove(name) }

// Version describes this daemon's API surface for clients and for
// coordinator-side compatibility checks.
func (s *Server) Version() VersionInfo {
	caps := []string{
		"jobs", "stream", "metrics", "partials", "shards", "coordinate", "workers", "tenants", "adaptive", "sites",
	}
	if s.archive != nil {
		caps = append(caps, "archive")
	}
	return VersionInfo{
		Service:      "faultpropd",
		API:          APIVersion,
		Capabilities: caps,
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runJob executes one campaign to completion, cancellation, or drain. It
// is the scheduler's run callback and runs on a dedicated goroutine.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coordinated := false
	var prog *harness.Progress

	j.mu.Lock()
	// A drain or cancel may have raced dispatch; honor it before starting.
	if j.reason != stopNone {
		alreadyStopped := j.reason
		j.mu.Unlock()
		s.settleStopped(j, alreadyStopped, nil)
		return
	}
	j.cancel = cancel
	coordinated = j.status.Spec.Shards > 1
	if coordinated {
		// Merged progress arrives through j.coordProg instead.
		j.prog = nil
	} else {
		prog = &harness.Progress{}
		j.prog = prog
	}
	j.status.State = StateRunning
	j.status.Started = time.Now().UTC()
	j.status.Error = ""
	j.status.ErrorCode = ""
	st := j.status
	queuedAt := j.queuedAt
	j.mu.Unlock()

	if !queuedAt.IsZero() {
		s.obs.queueWait.ObserveDuration(time.Since(queuedAt))
	}
	s.log.Info("job started", "job", st.ID, "trace", st.Trace,
		"coordinated", coordinated, "queue_wait", time.Since(queuedAt))

	if err := s.store.SaveStatus(st); err != nil {
		s.fail(j, fmt.Errorf("persist: %w", err))
		return
	}
	j.hub.publish(Event{Kind: EventState, Job: st.ID, State: StateRunning})

	if coordinated {
		res, err := s.runCoordinated(ctx, j, st)
		j.mu.Lock()
		j.cancel = nil
		final := j.coordProg
		if final != nil {
			j.status.Resumed = final.Resumed
		}
		reason := j.reason
		j.mu.Unlock()
		switch {
		case err == nil:
			s.finish(j, res, final)
		case errors.Is(err, harness.ErrInterrupted) && reason != stopNone:
			s.settleStopped(j, reason, err)
		default:
			s.fail(j, err)
		}
		return
	}

	cfg, err := st.Spec.CampaignConfig()
	if err != nil {
		s.fail(j, err)
		return
	}
	cfg.Workers = s.cfg.WorkerPool
	cfg.Gate = s.gate
	cfg.Progress = prog
	cfg.Checkpoint = s.store.JournalPath(st.ID)
	// Resume is unconditional: a fresh job has no journal yet (the harness
	// starts one), and a redispatched job replays its completed
	// experiments instead of re-running them. A fresh job whose family has
	// a shorter campaign archived starts from that campaign's journal, and
	// executes only the experiments it lacks.
	cfg.Resume = true
	if _, err := os.Stat(cfg.Checkpoint); os.IsNotExist(err) {
		if src, runs, journal := s.familySource(st, cfg); journal != nil {
			if err := s.store.SeedJournal(st.ID, journal); err != nil {
				s.log.Warn("job not seeded", "job", st.ID, "trace", st.Trace, "err", err)
			} else {
				s.noteSeeded(st, src, runs)
			}
		}
	}
	cfg.Trace = st.Trace
	// Timings ride in shard partials so the coordinator's metrics absorb
	// them; OnPhase feeds this daemon's own registry live.
	cfg.Timings = harness.NewCampaignTimings()
	cfg.OnPhase = func(tr harness.PhaseTrace) {
		s.obs.observe(tr)
		if s.cfg.SlowExperiment > 0 && tr.Total >= s.cfg.SlowExperiment {
			s.log.Warn("slow experiment", "job", st.ID, "trace", st.Trace,
				"experiment", tr.ID, "outcome", tr.Outcome.String(),
				"total", tr.Total, "execute", tr.Execute)
		}
	}
	cfg.OnExperiment = func(sum harness.ExperimentSummary, resumed bool) {
		j.hub.publish(Event{Kind: EventExperiment, Job: st.ID, Experiment: &ExperimentEvent{
			ID:      sum.ID,
			Outcome: sum.Outcome.String(),
			Rank:    sum.InjRank,
			Cycle:   sum.InjCycle,
			Fired:   sum.Fired,
			MaxCML:  sum.MaxCML,
			Resumed: resumed,
		}})
	}

	// Periodic progress events for watchers.
	tickDone := make(chan struct{})
	go func() {
		t := time.NewTicker(s.cfg.ProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				snap := prog.Snapshot()
				j.hub.publish(Event{Kind: EventProgress, Job: st.ID, State: StateRunning, Progress: &snap})
			case <-tickDone:
				return
			}
		}
	}()

	var res *harness.CampaignResult
	var part *harness.PartialResult
	if st.Spec.Shard != nil {
		part, err = harness.RunShardContext(ctx, cfg, *st.Spec.Shard)
	} else {
		res, err = harness.RunCampaignContext(ctx, cfg)
	}
	close(tickDone)

	final := prog.Snapshot()
	j.mu.Lock()
	j.cancel = nil
	j.status.Resumed = final.Resumed
	reason := j.reason
	j.mu.Unlock()

	switch {
	case err == nil && part != nil:
		s.finishPartial(j, part)
	case err == nil:
		s.finish(j, res, &final)
	case errors.Is(err, harness.ErrInterrupted) && reason != stopNone:
		s.settleStopped(j, reason, err)
	default:
		s.fail(j, err)
	}
}

// finish records a successful campaign: result persisted, status done
// with final, the campaign's last progress snapshot, result event
// streamed, stream closed, and the result committed to the campaign
// archive (when one is configured) under the job's cache key.
// The result is marshalled exactly once — the bytes in the job store, the
// bytes in the archive and the bytes GET result sends are the same bytes,
// which is what makes a later cache hit provably byte-identical.
func (s *Server) finish(j *job, res *harness.CampaignResult, final *harness.Snapshot) {
	data, err := json.Marshal(res)
	if err != nil {
		s.fail(j, fmt.Errorf("service: store result: %w", err))
		return
	}
	if err := s.store.SaveResultBytes(j.status.ID, data); err != nil {
		s.fail(j, err)
		return
	}
	tally := res.Tally
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	st.State = StateDone
	st.Finished = time.Now().UTC()
	st.Progress = final
	st.Tally = &tally
	st.FPS = res.Model.FPS
	st.Strata = res.Strata
	// Archive before the done status becomes visible (in memory or on
	// disk): a client that polls the job to completion and immediately
	// resubmits the same spec must find the entry — flipping the status
	// first would open a cache-miss window.
	s.archiveResult(st, res, data)
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
	if err := s.store.SaveStatus(st); err != nil {
		s.fail(j, err)
		return
	}
	j.hub.publish(Event{Kind: EventResult, Job: st.ID, State: StateDone, Tally: &tally, FPS: st.FPS})
	j.hub.close()
	s.log.Info("job done", "job", st.ID, "trace", st.Trace,
		"runs", tally.Total, "elapsed", st.Finished.Sub(st.Started))
}

// finishPartial records a successful shard job: the mergeable partial is
// persisted where the coordinator's fetch (GET /v1/jobs/{id}/partial)
// finds it, the status goes done, and the stream closes. No FPS model is
// attached — fits are recomputed by whoever merges the shards.
func (s *Server) finishPartial(j *job, part *harness.PartialResult) {
	if err := s.store.SavePartial(s.store.partialPath(j.status.ID), part); err != nil {
		s.fail(j, err)
		return
	}
	tally := part.Tally
	j.mu.Lock()
	j.status.State = StateDone
	j.status.Finished = time.Now().UTC()
	j.status.Tally = &tally
	st := j.status
	j.mu.Unlock()
	if err := s.store.SaveStatus(st); err != nil {
		s.fail(j, err)
		return
	}
	j.hub.publish(Event{Kind: EventResult, Job: st.ID, State: StateDone, Tally: &tally})
	j.hub.close()
	s.log.Info("shard job done", "job", st.ID, "trace", st.Trace,
		"runs", tally.Total, "elapsed", st.Finished.Sub(st.Started))
}

// settleStopped resolves an interrupted job: a client cancel is terminal,
// a drain returns the job to the queue so the next daemon start resumes
// it from its journal.
func (s *Server) settleStopped(j *job, reason stopReason, cause error) {
	j.mu.Lock()
	if reason == stopCancel {
		j.status.State = StateCancelled
		j.status.Finished = time.Now().UTC()
	} else {
		j.status.State = StateQueued
		j.status.Started = time.Time{}
		j.status.Finished = time.Time{}
	}
	if cause != nil {
		j.status.Error = cause.Error()
	}
	st := j.status
	j.mu.Unlock()
	// Persistence failure here must not look like success; surface it in
	// the stored record on the next save, but keep the in-memory state.
	_ = s.store.SaveStatus(st)
	j.hub.publish(Event{Kind: EventState, Job: st.ID, State: st.State, Error: st.Error})
	if st.State.Terminal() {
		j.hub.close()
		s.log.Info("job cancelled", "job", st.ID, "trace", st.Trace)
	} else {
		s.log.Info("job requeued by drain", "job", st.ID, "trace", st.Trace)
	}
}

// fail marks a job failed. The wire code of the cause (when it has one)
// lands in JobStatus.ErrorCode, so a coordinator reading a failed shard
// job's status can tell fatal causes from transient ones without string
// matching.
func (s *Server) fail(j *job, err error) {
	j.mu.Lock()
	j.status.State = StateFailed
	j.status.Finished = time.Now().UTC()
	j.status.Error = err.Error()
	j.status.ErrorCode = ErrorCode(err)
	st := j.status
	j.mu.Unlock()
	_ = s.store.SaveStatus(st)
	j.hub.publish(Event{Kind: EventState, Job: st.ID, State: StateFailed, Error: st.Error})
	j.hub.close()
	s.log.Error("job failed", "job", st.ID, "trace", st.Trace,
		"err", st.Error, "code", st.ErrorCode)
}
