package service

import (
	"repro/internal/classify"
	"repro/internal/harness"
	"repro/internal/obs"
)

// serverObs bundles the daemon's metrics registry and the collectors the
// hot paths observe into. Histograms here are the live, daemon-lifetime
// view; per-job CampaignTimings additionally ride inside shard partials
// so a coordinator's registry also absorbs its workers' distributions.
type serverObs struct {
	reg *obs.Registry

	// queueWait: submission-to-start latency of dispatched jobs.
	queueWait *obs.Histogram
	// shardDur: wall time of completed coordinated shards (submit to
	// fetched partial, transport included).
	shardDur *obs.Histogram
	// shardReconnects: re-attachments to a worker's shard event stream
	// after the first (truncated for lagging, cut for silence, or broken).
	// shardProbes: status GETs the coordinator made as liveness probes,
	// because a shard's stream broke or stayed silent for one Heartbeat
	// (a shard that waits that long for a job slot on its worker is
	// silent too). Both read 0 while every worker streams its shards from
	// start to terminal event — the fast path.
	shardReconnects, shardProbes *obs.Counter
	// streamDrops: subscribers disconnected for lagging.
	streamDrops *obs.Counter
	// cacheHits/cacheMisses: submissions served from the campaign archive
	// vs run fresh (corrupt archive entries count as misses).
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// cacheHit: time a hit submission spent in the archive lookup and in
	// materializing the job — the fast path, when it is taken.
	cacheHit *obs.Histogram
	// verifyFailures: archive reads that failed their checksum, wherever
	// the bytes were about to be served (submit, result, stream).
	verifyFailures *obs.Counter
	// httpRequests: API requests served, by method.
	httpRequests map[string]*obs.Counter

	// expLatency: whole-experiment wall time per outcome class.
	expLatency [classify.NumOutcomes]*obs.Histogram
	// phase latencies of the injection pipeline.
	injectLat, restoreLat, execLat, classifyLat *obs.Histogram
	// restoreBytes: total bytes copied by snapshot-fork restores.
	restoreBytes *obs.Counter
	// vmBacked: the most address-space backing any one experiment's ranks
	// held between them; it stays in the tens of KiB while every run
	// stores only to its own data.
	vmBacked *obs.Gauge
	// restoreFrac: dirty-block fraction per forked restore (1.0 = full
	// copy; delta restores land proportional to what the fork dirtied).
	restoreFrac *obs.Histogram
	// mpiDeadlocks: experiments ended by the deadlock detector, in logical
	// time. mpiTimeouts: experiments in which a blocking MPI call ran into
	// the wall-clock safety timeout instead — must read 0.
	mpiDeadlocks, mpiTimeouts *obs.Counter
	// goldenExits: experiments that ended at a golden-equal cut instead of
	// executing the golden tail — the early exit, when it is taken.
	goldenExits *obs.Counter
}

func newServerObs() *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg: reg,
		queueWait: reg.Histogram("faultpropd_queue_wait_seconds",
			"Time jobs spent queued before starting.", obs.LatencyBuckets()),
		shardDur: reg.Histogram("faultpropd_shard_seconds",
			"Wall time of coordinated shards, submit to fetched partial.", obs.LatencyBuckets()),
		shardReconnects: reg.Counter("faultpropd_shard_stream_reconnects_total",
			"Re-attachments to a worker's shard event stream (truncated, silent for one heartbeat, or broken); 0 while every shard streams from start to end."),
		shardProbes: reg.Counter("faultpropd_shard_liveness_probes_total",
			"Worker status GETs made because a shard's event stream broke or fell silent for one heartbeat; 0 while every shard streams from start to end."),
		streamDrops: reg.Counter("faultpropd_stream_drops_total",
			"Event-stream subscribers dropped for lagging."),
		cacheHits: reg.Counter("faultpropd_cache_hits_total",
			"Submissions served from the campaign archive."),
		cacheMisses: reg.Counter("faultpropd_cache_misses_total",
			"Submissions not served from the archive (absent or corrupt entry)."),
		cacheHit: reg.Histogram("faultpropd_cache_hit_seconds",
			"Time a cache-hit submission spent on the archive lookup and on materializing its job.", obs.LatencyBuckets()),
		verifyFailures: reg.Counter("faultpropd_archive_verify_failures_total",
			"Archive reads that failed checksum verification while serving a submission, a result or an event stream."),
		injectLat: reg.Histogram("faultpropd_experiment_phase_seconds",
			"Experiment phase latency.", obs.LatencyBuckets(), obs.L("phase", "inject")),
		restoreLat: reg.Histogram("faultpropd_experiment_phase_seconds",
			"Experiment phase latency.", obs.LatencyBuckets(), obs.L("phase", "restore")),
		restoreBytes: reg.Counter("faultpropd_restore_bytes_total",
			"Bytes copied by snapshot-fork restores."),
		vmBacked: reg.Gauge("faultpropd_vm_backed_bytes",
			"Largest address-space backing, summed over its ranks, that one experiment ended with."),
		restoreFrac: reg.Histogram("faultpropd_restore_dirty_fraction",
			"Dirty-block fraction per forked restore (1.0 = full copy).", obs.FractionBuckets()),
		execLat: reg.Histogram("faultpropd_experiment_phase_seconds",
			"Experiment phase latency.", obs.LatencyBuckets(), obs.L("phase", "execute")),
		classifyLat: reg.Histogram("faultpropd_experiment_phase_seconds",
			"Experiment phase latency.", obs.LatencyBuckets(), obs.L("phase", "classify")),
		mpiDeadlocks: reg.Counter("faultpropd_mpi_deadlocks_total",
			"Experiments ended by the MPI deadlock detector, in logical time."),
		mpiTimeouts: reg.Counter("faultpropd_mpi_timeouts_total",
			"Experiments in which a blocking MPI call hit the wall-clock safety timeout; above 0 is a framework bug."),
		goldenExits: reg.Counter("faultpropd_golden_exits_total",
			"Experiments that ended at a captured cut where every rank was back in the golden state, instead of executing the golden tail."),
		httpRequests: make(map[string]*obs.Counter),
	}
	for i := range o.expLatency {
		o.expLatency[i] = reg.Histogram("faultpropd_experiment_seconds",
			"Experiment wall time by outcome class.", obs.LatencyBuckets(),
			obs.L("outcome", classify.Outcome(i).String()))
	}
	for _, m := range []string{"GET", "POST", "DELETE"} {
		o.httpRequests[m] = reg.Counter("faultpropd_http_requests_total",
			"API requests served, by method.", obs.L("method", m))
	}
	return o
}

// observePhase folds one locally executed experiment's phase timings into
// the registry histograms.
func (o *serverObs) observePhase(tr harness.PhaseTrace) {
	if i := int(tr.Outcome); i >= 0 && i < classify.NumOutcomes {
		o.expLatency[i].ObserveDuration(tr.Total)
	}
	o.injectLat.ObserveDuration(tr.Inject)
	o.restoreLat.ObserveDuration(tr.Restore)
	o.execLat.ObserveDuration(tr.Execute)
	o.classifyLat.ObserveDuration(tr.Classify)
	o.vmBacked.SetMax(float64(tr.BackedBytes))
	if tr.Forked {
		o.restoreBytes.Add(uint64(tr.RestoreBytes))
		o.restoreFrac.Observe(tr.RestoreFrac)
	}
	if tr.Deadlock {
		o.mpiDeadlocks.Inc()
	}
	if tr.Timeout {
		o.mpiTimeouts.Inc()
	}
	if tr.Exited {
		o.goldenExits.Inc()
	}
}

// absorbTimings merges a shard partial's carried histograms into the
// registry, so a coordinator's /v1/metrics covers experiments that ran on
// its workers. Layouts are fixed stack-wide, so a mismatch cannot happen
// with our own partials; a foreign layout is simply skipped.
func (o *serverObs) absorbTimings(t *harness.CampaignTimings) {
	if t == nil {
		return
	}
	for i := range o.expLatency {
		_ = o.expLatency[i].Merge(t.ByOutcome[i])
	}
	_ = o.injectLat.Merge(t.Inject)
	_ = o.restoreLat.Merge(t.Restore)
	_ = o.execLat.Merge(t.Execute)
	_ = o.classifyLat.Merge(t.Classify)
	_ = o.restoreFrac.Merge(t.RestoreFrac)
	// The bytes histogram carries the shard's exact per-restore copy
	// sizes; its sum feeds the daemon-lifetime counter.
	o.restoreBytes.Add(uint64(t.RestoreBytes.Sum()))
	o.goldenExits.Add(uint64(t.Exits()))
}

// countRequest bumps the per-method request counter (unknown methods are
// uncounted rather than growing the label set unboundedly).
func (o *serverObs) countRequest(method string) {
	o.httpRequests[method].Inc()
}
