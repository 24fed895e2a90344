package service

import (
	"fmt"
	"net/http"

	"repro/internal/classify"
)

// Metrics assembles the service metrics document.
func (s *Server) Metrics() Metrics {
	queued, running := s.sched.counts()
	m := Metrics{
		QueueDepth:  queued,
		RunningJobs: running,
		JobSlots:    s.cfg.JobSlots,
		WorkerPool:  s.cfg.WorkerPool,
		// A worker is busy while it holds a token of the shared gate.
		// A coordinated job's progress counts its remote shards in
		// flight, which take none.
		WorkersBusy:  cap(s.gate) - len(s.gate),
		StreamDrops:  s.obs.streamDrops.Value(),
		CacheHits:    s.obs.cacheHits.Value(),
		CacheMisses:  s.obs.cacheMisses.Value(),
		RestoreBytes: s.obs.restoreBytes(),
		GoldenExits:  s.obs.goldenExits(),
		Outcomes:     make(map[string]int),
	}
	if s.archive != nil {
		m.ArchiveEntries, m.ArchiveBytes = s.archive.Stats()
	}
	for _, st := range s.Jobs() {
		switch st.State {
		case StateDone:
			m.JobsDone++
		case StateFailed:
			m.JobsFailed++
		case StateCancelled:
			m.JobsCancelled++
		}
		var outcomes [classify.NumOutcomes]int
		jm := JobMetrics{
			ID:       st.ID,
			State:    st.State,
			Priority: st.Spec.Priority,
			Total:    st.Spec.Runs,
			Resumed:  st.Resumed,
		}
		switch {
		case st.Tally != nil:
			jm.Done = st.Tally.Total
			outcomes = st.Tally.Counts
		case st.Progress != nil:
			jm.Done = st.Progress.Done
			jm.RunsPerSec = st.Progress.RunsPerSec
			outcomes = st.Progress.Outcomes
			m.RunsPerSec += st.Progress.RunsPerSec
		}
		for o := 0; o < classify.NumOutcomes; o++ {
			if outcomes[o] > 0 {
				m.Outcomes[classify.Outcome(o).String()] += outcomes[o]
			}
		}
		if !st.State.Terminal() {
			m.Jobs = append(m.Jobs, jm)
		}
	}
	if m.WorkerPool > 0 {
		m.Utilization = float64(m.WorkersBusy) / float64(m.WorkerPool)
	}
	return m
}

// handlePromMetrics renders Metrics in the Prometheus text exposition
// format.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE faultpropd_queue_depth gauge\nfaultpropd_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "# TYPE faultpropd_jobs_running gauge\nfaultpropd_jobs_running %d\n", m.RunningJobs)
	fmt.Fprintf(w, "# TYPE faultpropd_job_slots gauge\nfaultpropd_job_slots %d\n", m.JobSlots)
	fmt.Fprintf(w, "# TYPE faultpropd_worker_pool gauge\nfaultpropd_worker_pool %d\n", m.WorkerPool)
	fmt.Fprintf(w, "# TYPE faultpropd_workers_busy gauge\nfaultpropd_workers_busy %d\n", m.WorkersBusy)
	fmt.Fprintf(w, "# TYPE faultpropd_worker_utilization gauge\nfaultpropd_worker_utilization %g\n", m.Utilization)
	fmt.Fprintf(w, "# TYPE faultpropd_runs_per_sec gauge\nfaultpropd_runs_per_sec %g\n", m.RunsPerSec)
	fmt.Fprintf(w, "# TYPE faultpropd_jobs_done_total counter\nfaultpropd_jobs_done_total %d\n", m.JobsDone)
	fmt.Fprintf(w, "# TYPE faultpropd_jobs_failed_total counter\nfaultpropd_jobs_failed_total %d\n", m.JobsFailed)
	fmt.Fprintf(w, "# TYPE faultpropd_jobs_cancelled_total counter\nfaultpropd_jobs_cancelled_total %d\n", m.JobsCancelled)
	fmt.Fprintf(w, "# TYPE faultpropd_runs_total counter\n")
	for o := 0; o < classify.NumOutcomes; o++ {
		name := classify.Outcome(o).String()
		fmt.Fprintf(w, "faultpropd_runs_total{outcome=%q} %d\n", name, m.Outcomes[name])
	}
	fmt.Fprintf(w, "# TYPE faultpropd_job_runs_done gauge\n")
	for _, jm := range m.Jobs {
		fmt.Fprintf(w, "faultpropd_job_runs_done{job=%q,state=%q} %d\n", jm.ID, jm.State, jm.Done)
	}
	// Registry-backed series: queue wait, shard duration, stream drops,
	// request counts, and the per-phase / per-outcome experiment latency
	// histograms (including distributions absorbed from worker partials).
	s.obs.reg.WritePrometheus(w)
}
