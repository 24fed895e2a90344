package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	faultprop "repro"
	"repro/internal/service"
)

// fleet is three faultpropd daemons in this process behind httptest
// servers: a coordinator with an archive, and two peers it shards onto.
type fleet struct {
	servers []*service.Server
	https   []*httptest.Server
	// coord is the one client that drives the coordinator.
	coord *faultprop.ServiceClient
}

// startFleet starts the daemons with the daemon's default Config (500 ms
// progress and coordinator poll interval, two job slots, a worker pool of
// one per CPU), registers the peers with the coordinator and waits until
// every /healthz answers.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	for i, name := range []string{"coordinator", "peer1", "peer2"} {
		cfg := service.Config{Dir: filepath.Join(dir, name)}
		if i == 0 {
			cfg.ArchiveDir = filepath.Join(dir, "archive")
		}
		srv, err := service.New(cfg)
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.servers = append(f.servers, srv)
		f.https = append(f.https, httptest.NewServer(srv.Handler()))
	}
	c, err := faultprop.NewServiceClient(f.https[0].URL)
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.coord = c
	ctx := context.Background()
	for i, hs := range f.https {
		if i > 0 {
			if _, err := c.RegisterWorker(ctx, fmt.Sprintf("peer%d", i), hs.URL); err != nil {
				return nil, errors.Join(err, f.stop())
			}
		}
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, errors.Join(fmt.Errorf("healthz of daemon %d: %s", i, resp.Status), f.stop())
		}
	}
	return f, nil
}

// stop drains the daemons and closes their listeners.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var err error
	for _, srv := range f.servers {
		err = errors.Join(err, srv.Drain(ctx))
	}
	for _, hs := range f.https {
		hs.Close()
	}
	return err
}

// coldServiceSetup measures service-jobs' set-up, from nothing to the
// first result: three daemons started, the peers registered, every
// /healthz ok, and the round's first cache-miss job submitted, streamed
// and fetched (its application built, its golden run and snapshots
// taken). The daemons alone start in 3 ms, which is too little to time.
func coldServiceSetup(seed uint64, sc scale, dir string) (float64, error) {
	start := time.Now()
	f, err := startFleet(dir)
	if err != nil {
		return 0, err
	}
	miss, _ := jobSpecs(seed, sc, 0)
	_, err = runJob(context.Background(), f.coord, miss[0], nil, -1, 0)
	d := time.Since(start)
	return d.Seconds(), errors.Join(err, f.stop())
}

// jobSpecs returns one round of service-jobs: missJobs distinct small
// campaigns over the five applications at test scale, and shardedJobs
// two-shard ones. Distinct Runs give distinct cache keys; every round
// takes the next block of Runs values.
func jobSpecs(seed uint64, sc scale, round int) (miss, sharded []service.JobSpec) {
	apps := faultprop.Apps()
	perApp := (sc.missJobs + len(apps) - 1) / len(apps)
	base := sc.jobRuns + round*(perApp+sc.shardedJobs)
	spec := func(i, runs int) service.JobSpec {
		return service.JobSpec{
			App: apps[i%len(apps)].Name(), Scale: "test", Runs: runs, Seed: seed,
			SampleEvery: sampleEvery, Snapshots: snapshots,
		}
	}
	for i := 0; i < sc.missJobs; i++ {
		miss = append(miss, spec(i, base+i/len(apps)))
	}
	for i := 0; i < sc.shardedJobs; i++ {
		s := spec(i, base+perApp+i)
		s.Shards = 2
		sharded = append(sharded, s)
	}
	return miss, sharded
}

// jobRun is one job driven from submission to result.
type jobRun struct {
	latency   time.Duration // submit to result
	submit    time.Duration
	queueWait time.Duration // submit to the first running event; 0 if none
	fetch     time.Duration
	status    service.JobStatus
	result    []byte // json.Marshal of the fetched CampaignResult
}

// runJob is client.Run taken apart so that each leg is timed: submit,
// stream until the job settles, fetch the result.
func runJob(ctx context.Context, c *faultprop.ServiceClient, spec service.JobSpec, tr *tracer, parent, rep int) (jobRun, error) {
	var j jobRun
	sp := tr.begin("job", parent, rep)
	defer tr.end(sp)
	start := time.Now()

	leg := tr.begin("submit", sp, rep)
	st, err := c.Submit(ctx, spec)
	tr.end(leg)
	if err != nil {
		return j, err
	}
	j.submit = time.Since(start)

	leg = tr.begin("watch", sp, rep)
	final, err := c.Watch(ctx, st.ID, func(ev service.Event) error {
		if j.queueWait == 0 && ev.State == service.StateRunning {
			j.queueWait = time.Since(start)
		}
		return nil
	})
	tr.end(leg)
	if err != nil {
		return j, err
	}
	j.status = final
	if final.State != service.StateDone {
		return j, fmt.Errorf("job %s settled as %s: %s", st.ID, final.State, final.Error)
	}

	leg = tr.begin("result", sp, rep)
	fetchStart := time.Now()
	res, err := c.Result(ctx, st.ID)
	tr.end(leg)
	if err != nil {
		return j, err
	}
	j.fetch = time.Since(fetchStart)
	j.latency = time.Since(start)
	j.result, err = json.Marshal(res)
	return j, err
}

// jobPhase is one phase of a round: the specs one after the other from
// one client (a closed loop). A job that errs, does not settle as done,
// or is (or is not) a cache hit against expectation fails.
type jobPhase struct {
	name string
	runs []jobRun
	wall time.Duration
	// experiments is the sum of the jobs' Runs.
	experiments int
}

func (b *bench) runPhase(ctx context.Context, f *fleet, name string, specs []service.JobSpec, wantHit bool, tr *tracer, parent, rep int) jobPhase {
	ph := jobPhase{name: name}
	sp := tr.begin(name, parent, rep)
	defer tr.end(sp)
	start := time.Now()
	for _, spec := range specs {
		j, err := runJob(ctx, f.coord, spec, tr, sp, rep)
		switch {
		case err != nil:
			b.report.attempt(1, 1)
			b.report.note("%s job %s runs=%d failed: %v", name, spec.App, spec.Runs, err)
			continue
		case j.status.CacheHit != wantHit:
			b.report.attempt(1, 1)
			b.report.note("%s job %s runs=%d: cacheHit=%v, want %v", name, spec.App, spec.Runs, j.status.CacheHit, wantHit)
			continue
		}
		b.report.attempt(1, 0)
		ph.runs = append(ph.runs, j)
		ph.experiments += spec.Runs
	}
	ph.wall = time.Since(start)
	return ph
}

// latenciesMS returns the submit-to-result latency of each job, in ms.
func (ph jobPhase) latenciesMS() []float64 {
	out := make([]float64, len(ph.runs))
	for i, j := range ph.runs {
		out[i] = float64(j.latency) / float64(time.Millisecond)
	}
	return out
}

// stalledJobs counts jobs that took stallGap longer than the phase's
// median job: one of their experiments sat in the mpi timeout.
func (ph jobPhase) stalledJobs() int {
	lat := ph.latenciesMS()
	limit := median(lat) + float64(stallGap)/float64(time.Millisecond)
	n := 0
	for _, l := range lat {
		if l >= limit {
			n++
		}
	}
	return n
}

// round is one round of service-jobs: the cache misses, the same specs
// again as cache hits, then the two-shard jobs.
type round struct {
	miss, hit, sharded jobPhase
	missSpecs          []service.JobSpec
}

// rate is the round's runs_per_s: the experiments the daemons executed
// over the wall of the two phases that execute any.
func (rd round) rate() float64 {
	return float64(rd.miss.experiments+rd.sharded.experiments) / (rd.miss.wall + rd.sharded.wall).Seconds()
}

func (rd round) stalledJobs() int { return rd.miss.stalledJobs() + rd.sharded.stalledJobs() }

// runRound runs round idx of the sizes in sc; tr, when not nil, records
// its spans under parent.
func (b *bench) runRound(ctx context.Context, f *fleet, sc scale, idx int, tr *tracer, parent int) round {
	miss, sharded := jobSpecs(b.campaignSeed, sc, idx)
	rp := tr.begin("repetition", parent, idx+1)
	defer tr.end(rp)
	return round{
		missSpecs: miss,
		miss:      b.runPhase(ctx, f, "miss", miss, false, tr, rp, idx+1),
		hit:       b.runPhase(ctx, f, "hit", miss, true, tr, rp, idx+1),
		sharded:   b.runPhase(ctx, f, "sharded", sharded, false, tr, rp, idx+1),
	}
}

// localRun runs a job's campaign in this process, as cmd/campaign would.
func localRun(spec service.JobSpec, sink *phaseSink) campaignRun {
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return campaignRun{err: err}
	}
	cfg.Workers = runtime.NumCPU()
	return runCampaign(context.Background(), cfg, sink)
}

// serviceOracle checks one job result per application against the bytes
// a local RunCampaign of the same spec gives.
func (b *bench) serviceOracle(rd round) error {
	seen := make(map[string]bool)
	for i, spec := range rd.missSpecs {
		if seen[spec.App] || i >= len(rd.miss.runs) {
			continue
		}
		seen[spec.App] = true
		local := localRun(spec, nil)
		if local.err != nil {
			return fmt.Errorf("local run of %s: %w", spec.App, local.err)
		}
		b.report.attempt(spec.Runs, local.panics)
		for _, ph := range []jobPhase{rd.miss, rd.hit} {
			if i < len(ph.runs) {
				b.report.compare(spec.Runs, fmt.Sprintf("%s job %s runs=%d and the local RunCampaign", ph.name, spec.App, spec.Runs), local.result, ph.runs[i].result)
			}
		}
	}
	return nil
}

// measureService is the end-to-end pass of service-jobs.
func (b *bench) measureService() error {
	r := b.report
	if err := b.measureSetup(); err != nil {
		return err
	}
	f, err := startFleet(filepath.Join(b.tmp, "fleet"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
	defer cancel()

	var rates, hitWalls, quietHits, miss, hit, sharded []float64
	stalled := 0
	var first round
	for i := 0; i < b.sc.repetitions(wlService, b.seconds); i++ {
		rd := b.runRound(ctx, f, b.sc, i, nil, -1)
		if i == 0 {
			first = rd
		}
		rates = append(rates, rd.rate())
		// The hit phase is short, so it is repeated like the journal
		// replays of the campaign workloads are.
		hits := []jobPhase{rd.hit}
		for len(hits) < b.sc.resumeSamples[wlService] {
			hits = append(hits, b.runPhase(ctx, f, "hit", rd.missSpecs, true, nil, -1, 0))
		}
		// jobs[p][j] is the latency of job j in hit phase p, in seconds.
		var jobs [][]float64
		for _, ph := range hits {
			hitWalls = append(hitWalls, ph.wall.Seconds())
			hit = append(hit, ph.latenciesMS()...)
			lat := make([]float64, len(ph.runs))
			for j, run := range ph.runs {
				lat[j] = run.latency.Seconds()
			}
			jobs = append(jobs, lat)
		}
		quietHits = append(quietHits, quietSum(jobs))
		miss = append(miss, rd.miss.latenciesMS()...)
		sharded = append(sharded, rd.sharded.latenciesMS()...)
		stalled += rd.stalledJobs()
	}
	b.peakRSS()
	if err := f.stop(); err != nil {
		return err
	}
	if len(miss) == 0 || len(hit) == 0 || len(sharded) == 0 {
		return errors.New("service-jobs: a phase completed no job")
	}
	r.add("runs_per_s", "experiments/s", rates...)
	// Like the campaign workloads' resume_s, a quiet-machine estimate: a
	// round's hit phase, every job at its fastest.
	fastest, _ := minMax(quietHits)
	r.addAs("resume_s", "s", fastest, hitWalls...)
	r.note("resume_s_median %.6g s", median(hitWalls))
	// The job latencies are informational lines: the driver's result
	// carries metrics every workload has.
	for _, p := range []struct {
		name string
		ms   []float64
	}{{"job_miss", miss}, {"job_hit", hit}, {"job_sharded", sharded}} {
		r.add(p.name+"_p50_ms", "ms", p.ms...)
		if tail := tailPercentile(len(p.ms)); tail > 50 {
			r.addAs(fmt.Sprintf("%s_p%d_ms", p.name, tail), "ms", quantile(p.ms, float64(tail)/100), p.ms...)
		}
	}
	r.add("stalled_experiments", "count", float64(stalled))
	if stalled > 0 {
		r.note("stall_contaminated: %d jobs took %v longer than their phase's median (README.md says how to re-derive stall-free windows)", stalled, stallGap)
	}
	return b.serviceOracle(first)
}

// traceService is the traced pass of service-jobs: after a warm-up, a
// quarter-size round without the benchmark's spans and one with them.
// The program's tracing hooks cannot be set through the HTTP API, so the
// per-phase budget comes from running the traced round's cache-miss
// specs in this process with the hooks set: the same experiments the
// daemons executed.
func (b *bench) traceService() error {
	r := b.report
	sc := b.sc
	sc.missJobs = max(5, sc.missJobs/4)
	sc.shardedJobs = max(1, sc.shardedJobs/4)
	f, err := startFleet(filepath.Join(b.tmp, "fleet"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
	defer cancel()

	b.runRound(ctx, f, sc, 0, nil, -1) // warms up
	plain := b.runRound(ctx, f, sc, 1, nil, -1)
	wl := b.tracer.begin(wlService, -1, 0)
	traced := b.runRound(ctx, f, sc, 2, b.tracer, wl)
	b.tracer.end(wl)
	if err := f.stop(); err != nil {
		return err
	}
	r.add("trace_overhead_pct", "%", 100*(plain.rate()/traced.rate()-1))
	r.add("stalled_experiments", "count", float64(traced.stalledJobs()))

	sink := newPhaseSink()
	for _, spec := range traced.missSpecs {
		if run := localRun(spec, sink); run.err != nil {
			return fmt.Errorf("local traced run of %s: %w", spec.App, run.err)
		}
	}
	sink.report(r)
	return nil
}
