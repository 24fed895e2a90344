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
	persisted, err := s.store.Recover(func(st *JobStatus) bool {
		if st.State.Terminal() || st.State == StateQueued && st.Started.IsZero() {
			return false
		}
		st.State, st.Started, st.Progress = StateQueued, time.Time{}, nil
		return true
	})
	if err != nil {
		return err
	}
	for _, st := range persisted {
		j := &job{status: st, hub: newHub(st.Trace, s.cfg.StreamBuffer, s.obs.streamDrops)}
		s.mu.Lock()
		s.jobs[st.ID] = j
		s.mu.Unlock()
		if st.State.Terminal() {
			j.hub.close()
			continue
		}
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
// for them to settle or for ctx to expire. Once they have settled it
// closes the job store's status log.
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
		return s.store.Close()
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
		err := s.record(j, stopped(stopCancel, nil))
		return j.snapshot(), err
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

// Journal returns a done job's checkpoint journal as the bytes stored: the
// job store's file or, for a cache hit, the archive entry's. A shard job's
// is what its coordinator folds into its own. ErrNoJournal when the job is
// known but not done, or its journal is gone.
func (s *Server) Journal(id string) ([]byte, error) {
	j := s.job(id)
	if j == nil {
		return nil, ErrJobNotFound
	}
	st := j.snapshot()
	if st.State != StateDone {
		return nil, fmt.Errorf("%w: job %s (state %s)", ErrNoJournal, id, st.State)
	}
	var data []byte
	var err error
	if st.CacheHit {
		data, err = s.entryFile(st, archive.JournalFile)
	} else {
		data, err = os.ReadFile(s.store.JournalPath(id))
	}
	if err != nil {
		// %v: a corrupt entry under a fetch must not route Fatal.
		return nil, fmt.Errorf("%w: job %s: %v", ErrNoJournal, id, err)
	}
	return data, nil
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
		"jobs", "stream", "metrics", "journals", "shards", "coordinate", "workers", "tenants", "adaptive", "sites",
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

// runJob executes one job to its end — done, failed, cancelled, or
// requeued by a drain — the same way for every kind of job: a whole job,
// a shard job and a coordinated job each run to a partial through one call,
// report through one progress source, and settle through settle. It is
// the scheduler's run callback and runs on a dedicated goroutine.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j.mu.Lock()
	// A drain or cancel may have raced dispatch; honor it before starting.
	if reason := j.reason; reason != stopNone {
		j.mu.Unlock()
		s.record(j, stopped(reason, nil))
		return
	}
	j.cancel = cancel
	j.status.State = StateRunning
	j.status.Started = time.Now().UTC()
	j.status.Error = ""
	j.status.ErrorCode = ""
	st := j.status
	coordinated := st.Spec.Shards > 1
	prog := &harness.Progress{}
	var flights *shardProgress
	j.progress = prog.Snapshot
	if coordinated {
		flights = newShardProgress(prog)
		j.progress = flights.snapshot
	}
	progress := j.progress
	queuedAt := j.queuedAt
	j.mu.Unlock()

	if !queuedAt.IsZero() {
		s.obs.queueWait.ObserveDuration(time.Since(queuedAt))
	}
	s.log.Info("job started", "job", st.ID, "trace", st.Trace,
		"coordinated", coordinated, "queue_wait", time.Since(queuedAt))

	var part *harness.PartialResult
	err := s.store.SaveStatus(st)
	if err != nil {
		err = fmt.Errorf("persist: %w", err)
	} else {
		j.hub.publish(Event{Kind: EventState, Job: st.ID, State: StateRunning})
		// One publisher streams every kind of job's progress to watchers.
		tickDone := make(chan struct{})
		go func() {
			t := time.NewTicker(s.cfg.ProgressEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					snap := progress()
					j.hub.publish(Event{Kind: EventProgress, Job: st.ID, State: StateRunning, Progress: &snap})
				case <-tickDone:
					return
				}
			}
		}()
		part, err = s.runCampaign(ctx, j, st, prog, flights)
		close(tickDone)
	}
	s.settle(j, part, progress(), err)
}

// runCampaign runs a job's campaign to its partial, one way for every
// kind of job: a shard job the experiments of its spec, a whole or a
// coordinated job [0, Runs), the coordinated one's batches on its peers
// (flights follows them; nil for the others). Resume is unconditional: a
// fresh job has no journal yet (the harness starts one), and a redispatched
// job replays its completed experiments instead of re-running them. A
// fresh whole or coordinated job whose family has a shorter campaign
// archived starts from that campaign's journal, and executes only the
// experiments it lacks.
func (s *Server) runCampaign(ctx context.Context, j *job, st JobStatus, prog *harness.Progress, flights *shardProgress) (*harness.PartialResult, error) {
	cfg, err := st.Spec.CampaignConfig()
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.cfg.WorkerPool
	cfg.Gate = s.gate
	cfg.Progress = prog
	cfg.Checkpoint = s.store.JournalPath(st.ID)
	cfg.Resume = true
	cfg.Trace = st.Trace
	if _, err := os.Stat(cfg.Checkpoint); os.IsNotExist(err) {
		if src, runs, journal := s.familySource(st, cfg); journal != nil {
			if err := harness.SeedJournal(cfg.Checkpoint, cfg, journal); err != nil {
				s.log.Warn("job not seeded", "job", st.ID, "trace", st.Trace, "err", err)
			} else {
				s.noteSeeded(st, src, runs)
			}
		}
	}
	// Timings ride in a shard job's done status so the coordinator's
	// metrics absorb them; OnPhase feeds this daemon's own registry live.
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
	if flights != nil {
		return harness.RunRemoteContext(ctx, cfg, s.executor(st, cfg, flights))
	}
	spec := harness.ShardSpec{Shards: 1, To: cfg.Runs, Runs: cfg.Runs}
	if st.Spec.Shard != nil {
		spec = *st.Spec.Shard
	}
	return harness.RunShardContext(ctx, cfg, spec)
}

// settle ends a job's run. A run that returned its partial commits it and
// the job is done; an interrupted one is cancelled or requeued by its stop
// reason; any other error fails the job. final is the run's last
// progress: its Resumed is the job's.
func (s *Server) settle(j *job, part *harness.PartialResult, final harness.Snapshot, err error) {
	j.mu.Lock()
	j.cancel = nil
	j.status.Resumed = final.Resumed
	reason, st := j.reason, j.status
	j.mu.Unlock()
	switch {
	case err == nil:
		done, err := s.commit(st, part, final)
		if err == nil {
			err = s.record(j, done)
		}
		if err != nil {
			s.record(j, failed(err))
		}
	case errors.Is(err, harness.ErrInterrupted) && reason != stopNone:
		s.record(j, stopped(reason, err))
	default:
		s.record(j, failed(err))
	}
}

// commit persists a finished run's partial where the job's kind is read,
// and returns the edit that marks the job done. A shard job's is its
// journal, already on disk, which its coordinator fetches (GET
// /v1/jobs/{id}/journal); its done status carries its tally and the
// phase timings the coordinator absorbs into its metrics. Any other job's
// partial finalizes into its result, and its done status keeps final as
// its progress. The result is marshalled exactly once — the bytes in the
// job store, the bytes in the archive and the bytes GET result sends are
// the same bytes, which is what makes a later cache hit provably
// byte-identical — and it is archived before the done status becomes
// visible: a client that polls the job to completion and immediately
// resubmits the same spec must find the entry.
func (s *Server) commit(st JobStatus, part *harness.PartialResult, final harness.Snapshot) (func(*JobStatus), error) {
	// The status keeps a copy of the tally, not a pointer into the result
	// it would then hold in memory for as long as the job is listed.
	tally := part.Tally
	if st.Spec.Shard != nil {
		return func(st *JobStatus) {
			st.State, st.Finished, st.Tally, st.Timings = StateDone, time.Now().UTC(), &tally, part.Timings
		}, nil
	}
	res, err := part.Finalize()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("service: store result: %w", err)
	}
	if err := s.store.SaveResultBytes(st.ID, data); err != nil {
		return nil, err
	}
	s.archiveResult(st, res, data)
	return func(st *JobStatus) {
		st.State, st.Finished, st.Progress = StateDone, time.Now().UTC(), &final
		st.Tally, st.FPS, st.Strata = &tally, res.Model.FPS, res.Strata
	}, nil
}

// stopped is the status edit of a job a stop reason ended: a client cancel
// is terminal, a drain returns the job to the queue so the next daemon
// start resumes it from its journal.
func stopped(reason stopReason, cause error) func(*JobStatus) {
	return func(st *JobStatus) {
		if reason == stopCancel {
			st.State, st.Finished = StateCancelled, time.Now().UTC()
		} else {
			st.State, st.Started, st.Finished = StateQueued, time.Time{}, time.Time{}
		}
		if cause != nil {
			st.Error = cause.Error()
		}
	}
}

// failed is the status edit of a failed job. The wire code of the cause
// (when it has one) lands in ErrorCode, so a coordinator reading a failed
// shard job's status can tell fatal causes from transient ones without
// string matching.
func failed(err error) func(*JobStatus) {
	return func(st *JobStatus) {
		st.State, st.Finished = StateFailed, time.Now().UTC()
		st.Error, st.ErrorCode = err.Error(), ErrorCode(err)
	}
}

// record applies edit to j's status and makes the new state known, the
// one way for every state a job settles in: the status persisted and
// logged, announced on the job's stream — a done job's tally, any other
// state's error — and the stream closed once the state is terminal. A
// done status that did not persist is not announced: it must not look
// like success, and the caller fails the job instead. Any other state
// stands in memory whether or not it persisted.
func (s *Server) record(j *job, edit func(*JobStatus)) error {
	j.mu.Lock()
	edit(&j.status)
	st := j.status
	j.mu.Unlock()
	err := s.store.SaveStatus(st)
	ev := Event{Kind: EventState, Job: st.ID, State: st.State, Error: st.Error}
	attrs := []any{"job", st.ID, "trace", st.Trace}
	switch st.State {
	case StateDone:
		if err != nil {
			return err
		}
		ev = Event{Kind: EventResult, Job: st.ID, State: st.State, Tally: st.Tally, FPS: st.FPS}
		s.log.Info("job done", append(attrs, "runs", st.Tally.Total, "elapsed", st.Finished.Sub(st.Started))...)
	case StateFailed:
		s.log.Error("job failed", append(attrs, "err", st.Error, "code", st.ErrorCode)...)
	case StateCancelled:
		s.log.Info("job cancelled", attrs...)
	default:
		s.log.Info("job requeued by drain", attrs...)
	}
	j.hub.publish(ev)
	if st.State.Terminal() {
		j.hub.close()
	}
	return err
}
