package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/harness"
)

// stopReason records why a running job's context was cancelled, so the run
// loop can tell a client cancellation (terminal) from a daemon drain (the
// job returns to the queue and resumes on the next start).
type stopReason int

const (
	stopNone stopReason = iota
	stopCancel
	stopDrain
)

// job is the server-side record of one campaign: its client-visible
// status, its live progress, its event stream, and its cancellation
// handle while running.
type job struct {
	mu     sync.Mutex
	status JobStatus
	prog   *harness.Progress
	// coordProg is the merged progress of a coordinated (sharded) job,
	// synthesized by the coordinator from the experiment events of its
	// shards' streams. Guarded by mu.
	coordProg *harness.Snapshot
	hub       *hub
	cancel    context.CancelFunc
	reason    stopReason
	// queuedAt is when the job last entered the queue (submission, daemon
	// restart, or drain requeue); the queue-wait metric measures from here
	// rather than Created so requeued jobs do not skew it. Guarded by mu.
	queuedAt time.Time
}

// noteQueued stamps the queue-entry time.
func (j *job) noteQueued() {
	j.mu.Lock()
	j.queuedAt = time.Now()
	j.mu.Unlock()
}

// snapshot returns the client-visible status, with a live progress
// snapshot attached while the job runs.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	if st.State == StateRunning {
		if j.prog != nil {
			s := j.prog.Snapshot()
			st.Progress = &s
		} else if j.coordProg != nil {
			s := *j.coordProg
			st.Progress = &s
		}
	}
	return st
}

// requestStop cancels the job's campaign context with the given reason.
// The first reason wins: a drain racing a client cancel keeps whichever
// arrived first.
func (j *job) requestStop(r stopReason) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reason == stopNone {
		j.reason = r
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// scheduler queues jobs and dispatches them onto a bounded number of job
// slots. Within the slots, higher Priority runs first and ties run in
// submission order; the per-experiment parallelism of everything running
// is additionally bounded by the server's shared worker gate, so one
// greedy job cannot starve the pool. The run callback executes a job to
// completion (or requeue) synchronously.
type scheduler struct {
	slots int
	run   func(*job)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	running  int
	draining bool
	wg       sync.WaitGroup
}

func newScheduler(slots int, run func(*job)) *scheduler {
	s := &scheduler{slots: slots, run: run}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the dispatch loop. It exits when drain is called.
func (s *scheduler) start() {
	go func() {
		for {
			s.mu.Lock()
			for !s.draining && (len(s.queue) == 0 || s.running >= s.slots) {
				s.cond.Wait()
			}
			if s.draining {
				s.mu.Unlock()
				return
			}
			j := s.pop()
			s.running++
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer func() {
					s.mu.Lock()
					s.running--
					s.mu.Unlock()
					s.cond.Broadcast()
					s.wg.Done()
				}()
				s.run(j)
			}()
		}
	}()
}

// pop removes and returns the best queued job: highest priority, then
// lowest ID (submission order). Caller holds s.mu.
func (s *scheduler) pop() *job {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		a, b := s.queue[i], s.queue[best]
		if a.status.Spec.Priority > b.status.Spec.Priority {
			best = i
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return j
}

// enqueue adds a job to the queue.
func (s *scheduler) enqueue(j *job) {
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// remove takes a queued job out of the queue (a cancel before dispatch).
// It reports whether the job was still queued.
func (s *scheduler) remove(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.queue {
		if s.queue[i] == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
}

// counts returns (queued, running).
func (s *scheduler) counts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}

// drain stops dispatching; queued jobs stay queued.
func (s *scheduler) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wait blocks until every dispatched job has finished.
func (s *scheduler) wait() { s.wg.Wait() }
