package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// A submitted job with Shards > 1 runs through the harness campaign engine
// like a local job (runCampaign): its journal at JournalPath, resumed on
// every start, seeded from its family's archived journal, the engine's own
// fixed or adaptive plan. The coordinator is the engine's Executor: every
// batch of experiments the engine would execute itself — a fixed job's
// pending IDs, or one adaptive round — runs on registered peer workers:
//
//	split    the batch splits into Shards explicit-ID specs (PlanRoundShards)
//	dispatch each spec goes to the least-loaded alive worker as a shard job
//	        and is followed on that worker's event stream — its terminal
//	        event, not a timer, ends it; worker death (failed heartbeat,
//	        or a severed or silent stream whose liveness probe fails)
//	        requeues the shard with backoff onto surviving workers
//	fold    a finished shard's checkpoint journal is fetched
//	        (GET /v1/jobs/{id}/journal) and handed back to the engine,
//	        which checks it against its spec and appends its records to
//	        the job's journal
//
// The job's journal is therefore its record, as a local job's is: a
// restarted coordinator resumes it and dispatches only the experiments it
// lacks, watchers replay it, the archive keeps it, and a longer campaign of
// the family starts from it. Its progress is the engine's, overlaid with
// the shards in flight (shardProgress), so watchers see one campaign, not
// N shards.

// maxShardAttempts bounds re-dispatches of one shard before the whole job
// fails: transient worker deaths retry, a systematically failing shard
// does not loop forever.
const maxShardAttempts = 5

// peerCallTimeout bounds each request/response exchange with a worker
// (submit, status, journal; retries included). The Client sets no timeout
// of its own, and a worker that accepts a connection and then hangs must
// surface as a Transient failure instead of holding its shard forever. A
// shard's watch has no such bound: attachShard's silence timer covers it.
const peerCallTimeout = 30 * time.Second

// shardTask is the dispatch-loop state of one shard.
type shardTask struct {
	spec     harness.ShardSpec
	attempts int
	notAfter time.Time // backoff: do not dispatch before this
	// key numbers the job's shards, batch after batch, for logs and span
	// IDs.
	key int
}

// shardOutcome is what one dispatch goroutine reports back.
type shardOutcome struct {
	task   *shardTask
	worker WorkerInfo
	// journal is the finished shard's checkpoint journal, and timings the
	// phase timings its worker's done status carries.
	journal []byte
	timings *harness.CampaignTimings
	// elapsed is the shard's wall time, submit to fetched journal
	// (set on success; feeds the shard-duration histogram).
	elapsed time.Duration
	err     error
	// category classifies err under the failure taxonomy and alone
	// decides the route: Fatal halts the job, Permanent rejects it with
	// the wire code, Transient requeues with backoff and dead-marks the
	// worker, Retriable requeues with backoff without implicating the
	// worker.
	category Category
}

// executor is the harness.Executor of coordinated job st, whose campaign
// is cfg: each batch the engine hands it splits into st.Spec.Shards
// explicit-ID specs, runs on the workers, and folds back shard by shard as
// each one's journal arrives. prog follows the shards in flight.
func (s *Server) executor(st JobStatus, cfg harness.CampaignConfig, prog *shardProgress) harness.Executor {
	next := 0 // the key of the next shard
	return func(ctx context.Context, ids []int, fold func(harness.ShardSpec, []byte) error) error {
		specs := harness.PlanRoundShards(cfg, ids, st.Spec.Shards)
		tasks := make([]*shardTask, len(specs))
		for i := range specs {
			tasks[i] = &shardTask{spec: specs[i], key: next}
			next++
		}
		s.log.Info("shard batch", "job", st.ID, "trace", st.Trace,
			"experiments", len(ids), "shards", len(specs))
		return s.runShardSet(ctx, st, tasks, prog, func(t *shardTask, journal []byte) error {
			return fold(t.spec, journal)
		})
	}
}

// shardProgress is a coordinated job's progress source: the engine's
// Progress, which counts what the job's journal holds, overlaid with the
// shards in flight — each counting the experiment events its stream has
// delivered — and with the golden exits of the shards that landed, which
// their journals do not record. Its own lock guards it, so status reads
// under the job's lock can take a snapshot.
type shardProgress struct {
	base *harness.Progress

	mu       sync.Mutex
	inflight map[*shardTask]int // experiments each in-flight shard reported
	exited   int
}

func newShardProgress(base *harness.Progress) *shardProgress {
	return &shardProgress{base: base, inflight: make(map[*shardTask]int)}
}

// report counts task t as in flight, done experiments into it.
func (p *shardProgress) report(t *shardTask, done int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight[t] = done
}

// land ends task t's flight and runs fold, when it is set, under the same
// lock: the shard's experiments leave the overlay as they reach the engine,
// and no snapshot counts them twice or not at all.
func (p *shardProgress) land(t *shardTask, exited int, fold func() error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inflight, t)
	p.exited += exited
	if fold == nil {
		return nil
	}
	return fold()
}

func (p *shardProgress) snapshot() harness.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.base.Snapshot()
	for _, done := range p.inflight {
		snap.Done += done
		snap.Running++
	}
	snap.Exited += p.exited
	if snap.Elapsed > 0 {
		snap.RunsPerSec = float64(snap.Done-snap.Resumed) / snap.Elapsed.Seconds()
	}
	return snap
}

// runShardSet dispatches a set of shard tasks across the registered
// workers and runs them all to completion. Worker selection, the retry
// taxonomy, and cancel/drain teardown live here, once per batch of the
// campaign. fold hands each fetched journal to the engine before the task
// counts as done; an error of it — a journal the engine refuses — halts
// the set as a fatal shard failure. prog follows the shards in flight and
// lands each one.
func (s *Server) runShardSet(ctx context.Context, st JobStatus,
	pending []*shardTask, prog *shardProgress,
	fold func(t *shardTask, journal []byte) error) error {

	total := len(pending)
	remaining := len(pending)

	// inflight tracks dispatched shards for teardown. The loop below owns
	// the map; mu guards the flights' jobID, which the dispatch goroutines
	// set.
	type flight struct {
		worker WorkerInfo
		jobID  string
	}
	var mu sync.Mutex
	inflight := make(map[*shardTask]*flight)
	outcomes := make(chan shardOutcome)

	dispatch := func(t *shardTask, w WorkerInfo) {
		f := &flight{worker: w}
		inflight[t] = f
		prog.report(t, 0)
		go func() {
			out := s.runShardOn(ctx, w, st, t, func(done int) {
				prog.report(t, done)
			}, func(jobID string) {
				mu.Lock()
				f.jobID = jobID
				mu.Unlock()
			})
			select {
			case outcomes <- out:
			case <-ctx.Done():
				// The interrupted path reads teardown info straight from
				// inflight; nobody drains this outcome.
			}
		}()
	}

	// The ticker lets re-dispatch backoffs expire; a finished shard arrives
	// on outcomes without waiting for it.
	tick := time.NewTicker(s.cfg.ProgressEvery)
	defer tick.Stop()

	assign := func() {
		now := time.Now()
		var rest []*shardTask
		noWorker := false
		for _, t := range pending {
			if noWorker || now.Before(t.notAfter) {
				rest = append(rest, t)
				continue
			}
			w, ok := s.registry.acquire()
			if !ok {
				noWorker = true
				rest = append(rest, t)
				continue
			}
			dispatch(t, w)
		}
		pending = rest
	}
	assign()

	interrupted := func() error {
		// Best-effort cancel of in-flight worker jobs so workers do not
		// burn cycles on a campaign nobody will merge. Their journals
		// remain; a re-dispatch starts a fresh worker job.
		tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer tcancel()
		var tds []flight
		mu.Lock()
		for _, f := range inflight {
			tds = append(tds, *f)
		}
		mu.Unlock()
		for _, td := range tds {
			if td.jobID != "" {
				_, _ = td.worker.peer.Cancel(tctx, td.jobID) // best effort
			}
			s.registry.release(td.worker.Name)
		}
		doneShards := total - remaining
		if cause := context.Cause(ctx); cause != nil {
			return fmt.Errorf("%w after %d of %d shards: %v",
				harness.ErrInterrupted, doneShards, total, cause)
		}
		return fmt.Errorf("%w after %d of %d shards",
			harness.ErrInterrupted, doneShards, total)
	}

	for remaining > 0 {
		select {
		case <-ctx.Done():
			return interrupted()
		case <-tick.C:
			assign()
		case out := <-outcomes:
			delete(inflight, out.task)
			s.registry.release(out.worker.Name)
			if out.err != nil {
				prog.land(out.task, 0, nil)
			}
			switch {
			case out.err == nil:
				if err := prog.land(out.task, out.timings.Exits(), func() error { return fold(out.task, out.journal) }); err != nil {
					// The engine refused the journal (another campaign's,
					// or not the spec's experiments): folding nothing of
					// it, halt as on any integrity violation.
					return fmt.Errorf("shard %d on worker %s: fatal: %w",
						out.task.key, out.worker.Name, err)
				}
				remaining--
				s.obs.shardDur.ObserveDuration(out.elapsed)
				// Fold the shard's timings into this coordinator's:
				// /v1/metrics then covers experiments that ran on workers,
				// not just local ones. Layouts are fixed stack-wide, so a
				// merge error is a foreign worker's, and only its metrics
				// are lost.
				_ = s.obs.timings.Merge(out.timings)
				s.log.Info("shard done", "job", st.ID, "trace", st.Trace,
					"shard", out.task.key, "worker", out.worker.Name, "elapsed", out.elapsed)
			case out.category == CategoryFatal:
				// Integrity violation (fingerprint mismatch): halt at once —
				// retrying could silently merge incompatible experiments.
				return fmt.Errorf("shard %d on worker %s: fatal: %w",
					out.task.key, out.worker.Name, out.err)
			case out.category == CategoryPermanent:
				// Configuration error: no amount of re-dispatching fixes a
				// wrong request. The wrapped sentinel keeps its wire code,
				// so the job's ErrorCode tells clients exactly why.
				return fmt.Errorf("shard %d on worker %s: %w",
					out.task.key, out.worker.Name, out.err)
			default:
				// Our own teardown (cancel, drain) surfaces as a context
				// error from the dispatch goroutine racing the ctx.Done
				// case above; that is not a worker failure, so do not mark
				// the worker dead or burn a dispatch attempt.
				if ctx.Err() != nil {
					return interrupted()
				}
				// Transient infrastructure failure (worker died, liveness
				// probe failed, 5xx/429): mark the worker dead so assignment
				// skips it until a heartbeat revives it. Retriable failures
				// (worker job cancelled under us, unclassified flake) also
				// requeue with backoff but do not implicate the worker.
				if out.category == CategoryTransient {
					s.registry.markAlive(out.worker.Name, false)
				}
				out.task.attempts++
				if out.task.attempts >= maxShardAttempts {
					return fmt.Errorf("shard %d failed after %d attempts (%s): %w",
						out.task.key, out.task.attempts, out.category, out.err)
				}
				out.task.notAfter = time.Now().Add(s.cfg.ProgressEvery << out.task.attempts)
				pending = append(pending, out.task)
				s.log.Warn("shard requeued", "job", st.ID, "trace", st.Trace,
					"shard", out.task.key, "worker", out.worker.Name,
					"category", out.category.String(),
					"attempt", out.task.attempts, "err", out.err)
				assign()
			}
		}
	}
	return nil
}

// runShardOn runs one shard to completion on one worker: submit, watch the
// worker job's event stream to its terminal event, fetch the done status
// (its timings) and the shard's journal, which the engine checks when it
// folds it. The stream alone drives the happy path: a done event triggers
// the fetches at once, and no timer sits between a shard's end and its
// outcome. Liveness is the status GET's (Client.Job, with its retries):
// as a probe it runs only when an attachment ended without a terminal
// event — the connection broke, or nothing arrived for one
// Config.Heartbeat — or on a failed or cancelled one, whose ErrorCode
// events do not carry. What the taxonomy classifies is that call's error
// or terminal status, never the stream's own error: a severed stream looks
// the same for a dead worker and a dropped connection, the probe tells
// them apart. A non-terminal answer means the job lives: attach again.
func (s *Server) runShardOn(ctx context.Context, w WorkerInfo, st JobStatus,
	t *shardTask, onProgress func(done int), onSubmit func(jobID string)) shardOutcome {

	spec := st.Spec
	spec.Shards = 0
	spec.Shard = &t.spec
	spec.Label = fmt.Sprintf("shard %d/%d of job %s", t.spec.Index, t.spec.Shards, st.ID)
	spec.Priority = st.Spec.Priority

	// The shard's span ID derives from the job's trace, so the worker's
	// journal, events, and logs correlate back to this submission.
	begun := time.Now()
	span := obs.ShardSpan(st.Trace, t.key)
	failed := func(err error, category Category) shardOutcome {
		return shardOutcome{task: t, worker: w, err: err, category: category}
	}
	// Submission is not retried (it is not idempotent); a failed submit
	// requeues the shard instead.
	cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
	wjob, err := w.peer.submit(cctx, spec, span, st.Tenant)
	cancel()
	if err != nil {
		return failed(err, Classify(err))
	}
	onSubmit(wjob.ID)
	s.log.Debug("shard dispatched", "job", st.ID, "trace", span,
		"shard", t.key, "worker", w.Name, "worker_job", wjob.ID)

	// done is the shard's progress: the most experiment events any one
	// attachment has delivered. Every attachment counts again from the
	// replayed journal, so an experiment is never counted twice.
	done := 0
	for {
		seen := 0
		state, err := s.attachShard(ctx, w.peer, wjob.ID, func() {
			if seen++; seen > done {
				done = seen
				onProgress(done)
			}
		})
		if ctx.Err() != nil {
			// Our own teardown; runShardSet routes it by its context.
			return failed(ctx.Err(), CategoryNone)
		}
		if errors.Is(err, ErrStreamTruncated) {
			s.obs.shardReconnects.Inc()
			continue
		}
		var cur JobStatus
		if state != StateDone {
			if state == "" {
				s.obs.shardProbes.Inc()
				// Not a warning yet: a shard queued behind others is silent
				// too. A probe that fails is logged where it requeues.
				s.log.Debug("shard stream ended early, probing worker", "job", st.ID, "trace", span,
					"shard", t.key, "worker", w.Name, "worker_job", wjob.ID, "err", err)
			}
			cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
			cur, err = w.peer.Job(cctx, wjob.ID)
			cancel()
			if err != nil {
				return failed(err, Classify(err))
			}
			switch cur.State {
			case StateDone:
			case StateFailed:
				// The worker's ErrorCode names the cause; classify it under
				// the taxonomy, and when it maps to a sentinel, wrap that
				// sentinel so the wire code survives into this job's failure.
				err := fmt.Errorf("worker job %s failed: %s", wjob.ID, cur.Error)
				if sentinel := ErrorForCode(cur.ErrorCode); sentinel != nil {
					err = fmt.Errorf("worker job %s failed: %w: %s", wjob.ID, sentinel, cur.Error)
				}
				return failed(err, ClassifyCode(cur.ErrorCode))
			case StateCancelled:
				// Someone cancelled the worker job out from under us: not an
				// infrastructure fault, so retriable — re-dispatch without
				// dead-marking the worker.
				return failed(fmt.Errorf("worker job %s was cancelled", wjob.ID), CategoryRetriable)
			default:
				s.obs.shardReconnects.Inc()
				continue
			}
		}
		if cur.State != StateDone {
			// The stream ended on done: the status carries the timings.
			cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
			cur, err = w.peer.Job(cctx, wjob.ID)
			cancel()
			if err != nil {
				return failed(err, Classify(err))
			}
		}
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		journal, err := w.peer.Journal(cctx, wjob.ID)
		cancel()
		if err != nil {
			return failed(err, Classify(err))
		}
		return shardOutcome{task: t, worker: w, journal: journal, timings: cur.Timings, elapsed: time.Since(begun)}
	}
}

// attachShard follows a worker job's event stream on one connection,
// calling onExperiment for every experiment event, and returns the terminal
// state the stream ended on — or "" and the reason when it ended early. The
// silence timer is the only clock on a shard: one Config.Heartbeat without
// an event (a running worker job publishes progress far more often) cuts
// the attachment so that the caller probes the worker.
func (s *Server) attachShard(ctx context.Context, peer *Client, jobID string, onExperiment func()) (JobState, error) {
	actx, detach := context.WithCancel(ctx)
	defer detach()
	silence := time.AfterFunc(s.cfg.Heartbeat, detach)
	defer silence.Stop()
	var final JobState
	_, err := peer.watchOnce(actx, jobID, func(ev Event) error {
		silence.Reset(s.cfg.Heartbeat)
		if ev.Kind == EventExperiment {
			onExperiment()
		}
		if ev.State.Terminal() {
			final = ev.State
		}
		return nil
	})
	return final, err
}
