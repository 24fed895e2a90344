package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// The coordinator turns one submitted job with Shards > 1 into a fleet of
// shard jobs on registered peer workers:
//
//	plan    PlanShards carves [0, Runs) into fingerprint-guarded specs
//	journal completed shards recorded in job-<id>.shards.jsonl, partials
//	        parked on disk — a coordinator restart re-runs only the
//	        missing shards
//	dispatch each pending shard goes to the least-loaded alive worker and
//	        is followed on that worker's event stream — its terminal
//	        event, not a timer, ends it; worker death (failed heartbeat,
//	        or a severed or silent stream whose liveness probe fails)
//	        requeues the shard with backoff onto surviving workers
//	merge   partials merge order-independently; the finalized result is
//	        byte-identical to a single-process run of the same spec
//
// A job that also carries an adaptive sampling policy (JobSpec.Sampling
// with a target CI) is coordinated round by round instead: the
// coordinator owns the planner, workers stay policy-blind executors of
// explicit-ID shard specs, and each round's merged per-stratum tallies
// steer the next round's allocation.
//
// The coordinator publishes merged progress events on the job's stream,
// so watchers see one campaign, not N shards.

// maxShardAttempts bounds re-dispatches of one shard before the whole job
// fails: transient worker deaths retry, a systematically failing shard
// does not loop forever.
const maxShardAttempts = 5

// peerCallTimeout bounds each request/response exchange with a worker
// (submit, status, partial; retries included). The Client sets no timeout
// of its own, and a worker that accepts a connection and then hangs must
// surface as a Transient failure instead of holding its shard forever. A
// shard's watch has no such bound: attachShard's silence timer covers it.
const peerCallTimeout = 30 * time.Second

// shardJournalRecord is one completed shard in the coordinator's journal.
type shardJournalRecord struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	// Path is the partial's on-disk location, owned by this record.
	Path string `json:"path"`
}

// shardTask is the dispatch-loop state of one shard.
type shardTask struct {
	spec     harness.ShardSpec
	attempts int
	notAfter time.Time // backoff: do not dispatch before this
	// key is the shard's journal identity and partial-path index. The
	// fixed plan uses the spec index; the adaptive coordinator keys
	// (round, slot) pairs so every round's shards journal distinctly.
	key int
	// slot is the task's position in its caller's parts slice.
	slot int
}

// shardOutcome is what one dispatch goroutine reports back.
type shardOutcome struct {
	task    *shardTask
	worker  WorkerInfo
	partial *harness.PartialResult
	// elapsed is the shard's wall time, submit to fetched partial
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

// runCoordinated executes a Shards > 1 job by decomposition: it returns
// the merged result, or an error (wrapping ErrInterrupted for
// cancel/drain, like the local path, so runJob's settlement logic treats
// both transports identically).
//
// The campaign runs as a sequence of shard rounds. A fixed plan is one
// round, PlanShards over [0, Runs). An adaptive job has a round per planner
// decision: the coordinator owns the sampling policy — the same pure
// decision core the local engine runs — and the workers never see it. Each
// round's experiment IDs are split into explicit-ID shard specs, and the
// round's per-stratum tallies fold back into the planner to steer the next
// one. Because outcomes are pure functions of the seed, the coordinated
// campaign executes the same experiment set as a local run and merges to
// the same bytes.
//
// Completed shards journal under the key (round-1)*Shards + slot — the spec
// index for a fixed plan. On coordinator restart the plan (and the planner,
// fed the journaled partials) re-derives the identical round sequence, and
// only what is missing is dispatched.
func (s *Server) runCoordinated(ctx context.Context, j *job, st JobStatus) (*harness.CampaignResult, error) {
	cfg, err := st.Spec.CampaignConfig()
	if err != nil {
		return nil, err
	}
	var planner *harness.AdaptivePlanner
	if st.Spec.Adaptive() {
		if planner, err = harness.NewAdaptivePlanner(cfg); err != nil {
			return nil, err
		}
	}
	nextRound := func(round int) ([]harness.ShardSpec, error) {
		switch {
		case planner != nil:
			return harness.PlanRoundShards(cfg, planner.NextRound(), st.Spec.Shards), nil
		case round == 1:
			return harness.PlanShards(cfg, st.Spec.Shards)
		}
		return nil, nil
	}
	fingerprint := cfg.Fingerprint()

	// Replay the shard journal: shards whose partials are already on disk
	// (a previous coordinator run) are not re-dispatched.
	saved, keep := s.replayShardPartials(st.ID, fingerprint)
	journal, err := s.appendShardJournal(st.ID, keep)
	if err != nil {
		return nil, err
	}
	defer journal.close()

	started := time.Now()
	var acc *harness.PartialResult // every finished round, merged
	resumedRuns := 0
	for round := 1; ; round++ {
		specs, err := nextRound(round)
		if err != nil {
			return nil, err
		}
		if len(specs) == 0 {
			break
		}
		parts := make([]*harness.PartialResult, len(specs))
		var pending []*shardTask
		for i := range specs {
			key := (round-1)*st.Spec.Shards + i
			if p := saved[key]; p != nil {
				parts[i] = p
				resumedRuns += specs[i].Size()
				continue
			}
			pending = append(pending, &shardTask{spec: specs[i], key: key, slot: i})
		}
		onDone := func(t *shardTask, worker string, part *harness.PartialResult) error {
			parts[t.slot] = part
			return journal.record(shardJournalRecord{
				Shard:  t.key,
				Worker: worker,
				Path:   s.store.ShardPartialPath(st.ID, t.key),
			}, part)
		}
		base := func() harness.Snapshot {
			snap := harness.Snapshot{Total: cfg.Runs, Resumed: resumedRuns}
			fold := func(p *harness.PartialResult) {
				if p == nil {
					return
				}
				snap.Done += p.Tally.Total
				snap.Exited += p.Timings.Exits()
				for o := range p.Tally.Counts {
					snap.Outcomes[o] += p.Tally.Counts[o]
				}
			}
			fold(acc)
			for _, p := range parts {
				fold(p)
			}
			return snap
		}
		s.log.Info("shard round", "job", st.ID, "trace", st.Trace,
			"round", round, "shards", len(specs), "pending", len(pending))
		if err := s.runShardSet(ctx, j, st, pending, len(specs), started, onDone, base); err != nil {
			return nil, err
		}
		for _, p := range parts {
			if planner != nil {
				planner.Fold(p.Strata)
			}
			if acc == nil {
				acc = p.Clone()
			} else if err := acc.Merge(p); err != nil {
				return nil, fmt.Errorf("merge round %d shards: %w", round, err)
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("campaign planned zero experiments")
	}
	// An adaptive planner closed every stratum on purpose: the executed
	// subset stands in for the whole budget when the merged partial
	// finalizes. A fixed plan must cover [0, Runs).
	if planner != nil {
		acc.AdaptiveDone = true
	}
	res, err := acc.Finalize()
	if err != nil {
		return nil, fmt.Errorf("merge shards: %w", err)
	}
	s.log.Info("shards merged", "job", st.ID, "trace", st.Trace,
		"spent", acc.Tally.Total, "budget", cfg.Runs, "fingerprint", fingerprint)
	return res, nil
}

// runShardSet dispatches a set of shard tasks across the registered
// workers and runs them all to completion. Worker selection, the retry
// taxonomy, merged-progress publication, and cancel/drain teardown live
// here, once per round of the campaign's shard plan.
// onDone persists each fetched partial before the task counts as done;
// base seeds each progress snapshot with the completed work the caller
// already tracks (journal-resumed shards, earlier rounds); total sizes
// the set's shard plan for interruption messages.
func (s *Server) runShardSet(ctx context.Context, j *job, st JobStatus,
	pending []*shardTask, total int, started time.Time,
	onDone func(t *shardTask, worker string, part *harness.PartialResult) error,
	base func() harness.Snapshot) error {

	remaining := len(pending)

	// inflight tracks dispatched shards for progress merging and
	// teardown. The map and the flight fields are guarded by j.mu: the
	// dispatch goroutines update progress through it while the loop below
	// reads it.
	type flight struct {
		worker WorkerInfo
		jobID  string
		done   int // experiments the shard's stream has reported
	}
	inflight := make(map[*shardTask]*flight)
	outcomes := make(chan shardOutcome)

	publishProgress := func() {
		snap := base()
		snap.Elapsed = time.Since(started)
		j.mu.Lock()
		for _, f := range inflight {
			snap.Done += f.done
			snap.Running++
		}
		if snap.Elapsed > 0 {
			snap.RunsPerSec = float64(snap.Done-snap.Resumed) / snap.Elapsed.Seconds()
		}
		cp := snap
		j.coordProg = &cp
		j.mu.Unlock()
		j.hub.publish(Event{Kind: EventProgress, Job: st.ID, State: StateRunning, Progress: &snap})
	}

	dispatch := func(t *shardTask, w WorkerInfo) {
		j.mu.Lock()
		inflight[t] = &flight{worker: w}
		j.mu.Unlock()
		go func() {
			out := s.runShardOn(ctx, w, st, t, func(done int) {
				j.mu.Lock()
				if f := inflight[t]; f != nil {
					f.done = done
				}
				j.mu.Unlock()
			}, func(jobID string) {
				j.mu.Lock()
				if f := inflight[t]; f != nil {
					f.jobID = jobID
				}
				j.mu.Unlock()
			})
			select {
			case outcomes <- out:
			case <-ctx.Done():
				// The interrupted path reads teardown info straight from
				// inflight; nobody drains this outcome.
			}
		}()
	}

	// The ticker publishes merged progress and lets re-dispatch backoffs
	// expire; a finished shard arrives on outcomes without waiting for it.
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
		j.mu.Lock()
		var tds []flight
		for _, f := range inflight {
			tds = append(tds, *f)
		}
		j.mu.Unlock()
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
			publishProgress()
		case out := <-outcomes:
			j.mu.Lock()
			delete(inflight, out.task)
			j.mu.Unlock()
			s.registry.release(out.worker.Name)
			switch {
			case out.err == nil:
				if err := onDone(out.task, out.worker.Name, out.partial); err != nil {
					return err
				}
				remaining--
				s.obs.shardDur.ObserveDuration(out.elapsed)
				// Fold the shard's phase-latency histograms into this
				// coordinator's registry: /v1/metrics then covers
				// experiments that ran on workers, not just local ones.
				s.obs.absorbTimings(out.partial.Timings)
				s.log.Info("shard done", "job", st.ID, "trace", st.Trace,
					"shard", out.task.key, "worker", out.worker.Name, "elapsed", out.elapsed)
				publishProgress()
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
// worker job's event stream to its terminal event, fetch the partial,
// sanity-check its fingerprint. The stream alone drives the happy path: a
// done event triggers the fetch at once, and no timer sits between a
// shard's end and its outcome. Liveness is the status GET's (Client.Job,
// with its retries): it runs only when an attachment ended without a
// terminal event — the connection broke, or nothing arrived for one
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
		if state != StateDone {
			if state == "" {
				s.obs.shardProbes.Inc()
				// Not a warning yet: a shard queued behind others is silent
				// too. A probe that fails is logged where it requeues.
				s.log.Debug("shard stream ended early, probing worker", "job", st.ID, "trace", span,
					"shard", t.key, "worker", w.Name, "worker_job", wjob.ID, "err", err)
			}
			cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
			cur, err := w.peer.Job(cctx, wjob.ID)
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
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		part, err := w.peer.Partial(cctx, wjob.ID)
		cancel()
		if err != nil {
			return failed(err, Classify(err))
		}
		if part.Fingerprint != t.spec.Fingerprint {
			return failed(fmt.Errorf("%w: worker %s returned %s, want %s",
				ErrFingerprintMismatch, w.Name, part.Fingerprint, t.spec.Fingerprint), CategoryFatal)
		}
		return shardOutcome{task: t, worker: w, partial: part, elapsed: time.Since(begun)}
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

// shardJournal appends completed-shard records, persisting each shard's
// partial before its journal line so a record always points at a readable
// partial.
type shardJournal struct {
	s *Server
	f *os.File
}

// replayShardPartials reads a coordinated job's shard journal (if any)
// and loads every journaled partial that still exists and matches the
// campaign fingerprint, keyed by the journal record's shard key.
// Everything it does not return re-runs. keep is the length of the
// journal's whole, decodable lines, where appendShardJournal cuts it.
func (s *Server) replayShardPartials(jobID, fingerprint string) (saved map[int]*harness.PartialResult, keep int64) {
	saved = make(map[int]*harness.PartialResult)
	data, err := os.ReadFile(s.store.ShardJournalPath(jobID))
	if err != nil {
		return saved, 0
	}
	for rest := data; ; {
		line, after, whole := bytes.Cut(rest, []byte{'\n'})
		if !whole {
			break // torn tail: a line never finished
		}
		rest = after
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var rec shardJournalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break // torn line: ignore it and everything after
			}
			if rec.Shard >= 0 && saved[rec.Shard] == nil {
				// A missing or foreign partial is not loaded: its shard re-runs.
				if part, err := s.store.LoadPartial(rec.Path); err == nil && part.Fingerprint == fingerprint {
					saved[rec.Shard] = part
				}
			}
		}
		keep = int64(len(data) - len(rest))
	}
	return saved, keep
}

// appendShardJournal opens (creating if absent) the append handle of a
// coordinated job's shard journal, cut to its first keep bytes so a torn
// tail does not swallow the records appended after it.
func (s *Server) appendShardJournal(jobID string, keep int64) (*shardJournal, error) {
	f, err := os.OpenFile(s.store.ShardJournalPath(jobID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: shard journal: %w", err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: shard journal: %w", err)
	}
	return &shardJournal{s: s, f: f}, nil
}

// record persists one completed shard: partial first, then the journal
// line, flushed.
func (j *shardJournal) record(rec shardJournalRecord, part *harness.PartialResult) error {
	if err := j.s.store.SavePartial(rec.Path, part); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: shard journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("service: shard journal: %w", err)
	}
	return j.f.Sync()
}

func (j *shardJournal) close() { _ = j.f.Close() }
