package service

import (
	"repro/internal/harness"
	"repro/internal/obs"
)

// serverObs bundles the daemon's metrics registry and the collectors the
// hot paths observe into. Histograms here are the live, daemon-lifetime
// view; per-job CampaignTimings additionally ride inside shard partials,
// and a coordinator merges them into its own timings, so its registry
// covers its workers' experiments too.
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
	// seededJobs: jobs that started from the archived journal of a shorter
	// campaign of their family; seededRecords: the experiments those
	// journals held, which the jobs replayed instead of executing.
	seededJobs, seededRecords *obs.Counter
	// verifyFailures: archive reads that failed their checksum, wherever
	// the bytes were about to be served (submit, result, stream).
	verifyFailures *obs.Counter
	// httpRequests: API requests served, by method.
	httpRequests map[string]*obs.Counter

	// timings: the experiment histograms — wall time per outcome class,
	// phase latencies, restore sizes, skipped golden tails — over local
	// experiments and absorbed shard partials. The latencies are registry
	// series; restored bytes and golden exits are read from it as
	// counters.
	timings *harness.CampaignTimings
	// vmBacked: the most address-space backing any one experiment's ranks
	// held between them; it stays in the tens of KiB while every run
	// stores only to its own data.
	vmBacked *obs.Gauge
	// mpiDeadlocks: experiments ended by the deadlock detector, in logical
	// time. mpiTimeouts: experiments in which a blocking MPI call ran into
	// the wall-clock safety timeout instead — must read 0.
	mpiDeadlocks, mpiTimeouts *obs.Counter
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
		seededJobs: reg.Counter("faultpropd_seeded_jobs_total",
			"Jobs started from the archived journal of a shorter campaign of their family."),
		seededRecords: reg.Counter("faultpropd_seeded_records_total",
			"Experiments seeded jobs replayed from an archived journal instead of executing them."),
		verifyFailures: reg.Counter("faultpropd_archive_verify_failures_total",
			"Archive reads that failed checksum verification while serving a submission, a result or an event stream."),
		timings: harness.NewCampaignTimingsFrom(func(h harness.TimingHist) *obs.Histogram {
			switch h.Name {
			case "byOutcome":
				return reg.Histogram("faultpropd_experiment_seconds",
					"Experiment wall time by outcome class.", h.Buckets, obs.L("outcome", h.Outcome.String()))
			case "restoreBytes", "skipped":
				return obs.NewHistogram(h.Buckets)
			}
			return reg.Histogram("faultpropd_experiment_phase_seconds",
				"Experiment phase latency.", h.Buckets, obs.L("phase", h.Name))
		}),
		vmBacked: reg.Gauge("faultpropd_vm_backed_bytes",
			"Largest address-space backing, summed over its ranks, that one experiment ended with."),
		mpiDeadlocks: reg.Counter("faultpropd_mpi_deadlocks_total",
			"Experiments ended by the MPI deadlock detector, in logical time."),
		mpiTimeouts: reg.Counter("faultpropd_mpi_timeouts_total",
			"Experiments in which a blocking MPI call hit the wall-clock safety timeout; above 0 is a framework bug."),
		httpRequests: make(map[string]*obs.Counter),
	}
	reg.CounterFunc("faultpropd_restore_bytes_total",
		"Bytes copied by snapshot-fork restores.", o.restoreBytes)
	reg.CounterFunc("faultpropd_golden_exits_total",
		"Experiments that ended at a captured cut where every rank was back in the golden state, instead of executing the golden tail.",
		o.goldenExits)
	// The hand-written decoders' fallbacks to encoding/json, process-wide:
	// each reads 0 while every document decoded is one the engine or the
	// daemon wrote.
	for _, c := range []struct {
		name  string
		count func() uint64
	}{
		{"journal", harness.JournalFallbacks},
		{"replay", harness.ReplayFallbacks},
		{"result", harness.ResultFallbacks},
		{"event", eventFallbacks.Load},
	} {
		reg.CounterFunc("faultpropd_codec_fallbacks_total",
			"Documents a hand-written decoder handed to encoding/json, by codec: journal records (resume), journal replays (event streams), result documents, stream events. Adaptive plan records are the journal codec's by design; anything else above 0 is input no engine or daemon wrote.",
			c.count, obs.L("codec", c.name))
	}
	for _, m := range []string{"GET", "POST", "DELETE"} {
		o.httpRequests[m] = reg.Counter("faultpropd_http_requests_total",
			"API requests served, by method.", obs.L("method", m))
	}
	return o
}

// observe folds one locally executed experiment in: its timings, and
// the three series that are not timings.
func (o *serverObs) observe(tr harness.PhaseTrace) {
	o.timings.Observe(tr)
	o.vmBacked.SetMax(float64(tr.BackedBytes))
	if tr.Deadlock {
		o.mpiDeadlocks.Inc()
	}
	if tr.Timeout {
		o.mpiTimeouts.Inc()
	}
}

// restoreBytes totals the bytes copied by snapshot-fork restores.
func (o *serverObs) restoreBytes() uint64 { return uint64(o.timings.RestoreBytes.Sum()) }

// goldenExits counts experiments that ended at a golden-equal cut
// instead of executing the golden tail — the early exit, when taken.
func (o *serverObs) goldenExits() uint64 { return uint64(o.timings.Exits()) }

// countRequest bumps the per-method request counter (unknown methods are
// uncounted rather than growing the label set unboundedly).
func (o *serverObs) countRequest(method string) {
	o.httpRequests[method].Inc()
}
