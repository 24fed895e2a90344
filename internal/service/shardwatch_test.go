package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// runCoordinated submits spec to coord, waits for it to settle as done and
// requires the merged result to marshal to the bytes of the local run.
func runCoordinated(t *testing.T, coord *testDaemon, spec service.JobSpec, local *harness.CampaignResult) {
	t.Helper()
	ctx := context.Background()
	st, err := coord.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, coord.c, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("coordinated job settled as %s: %s", final.State, final.Error)
	}
	merged, err := coord.c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(local)
	mj, _ := json.Marshal(merged)
	if string(lj) != string(mj) {
		t.Errorf("merged result JSON is not byte-identical to the local run (%d vs %d bytes)", len(lj), len(mj))
	}
}

// shardWatchCounters reads the coordinator's two fast-path counters.
func shardWatchCounters(t *testing.T, coord *testDaemon) (reconnects, probes float64) {
	t.Helper()
	prom := fetchProm(t, coord.http.URL)
	reconnects, ok1 := promValue(t, prom, "faultpropd_shard_stream_reconnects_total")
	probes, ok2 := promValue(t, prom, "faultpropd_shard_liveness_probes_total")
	if !ok1 || !ok2 {
		t.Fatalf("shard watch counters missing from /v1/metrics (reconnects %v, probes %v)", ok1, ok2)
	}
	return reconnects, probes
}

// TestCoordinatorDoesNotWaitForProgressTick pins what drives a shard to
// its end: the worker's terminal event, not a timer. With an hour between
// progress ticks on the coordinator and on both workers, a fixed and an
// adaptive two-shard job (one shard set per planner round) must still
// finish at once, on the fast path alone.
func TestCoordinatorDoesNotWaitForProgressTick(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, startDaemon(t, t.TempDir(), service.Config{ProgressEvery: time.Hour}).http.URL)
	}
	coord := startDaemon(t, t.TempDir(), service.Config{ProgressEvery: time.Hour, Peers: urls})

	fixed := service.JobSpec{App: "LULESH", Scale: "test", Runs: 40, Seed: 1905, SampleEvery: 64, Shards: 2}
	adaptive := service.JobSpec{App: "LULESH", Scale: "test", Runs: 160, Seed: 1905, SampleEvery: 64, Shards: 2,
		Sampling: &service.SamplingSpec{TargetCI: 0.25, Strata: 2}}
	for _, spec := range []service.JobSpec{fixed, adaptive} {
		local := localReference(t, spec)
		start := time.Now()
		runCoordinated(t, coord, spec, local)
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("two-shard job (adaptive=%v) took %v with hour-long progress ticks, want < 5s", spec.Adaptive(), d)
		}
	}
	if reconnects, probes := shardWatchCounters(t, coord); reconnects != 0 || probes != 0 {
		t.Errorf("healthy fleet: %v stream reconnects and %v liveness probes, want 0 and 0", reconnects, probes)
	}
}

// TestShardWatchSurvivesTruncation: workers that drop any watcher one
// event behind, and publish progress every microsecond so that every
// watcher of a running job does fall behind, truncate the coordinator's
// shard streams over and over. Every reconnect replays the journal, so the
// merged result is still the local run's, and the reconnects are counted.
func TestShardWatchSurvivesTruncation(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 200, Seed: 62, SampleEvery: 64, Shards: 2}
	local := localReference(t, spec)

	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, startDaemon(t, t.TempDir(), service.Config{
			ProgressEvery: time.Microsecond, StreamBuffer: 1,
		}).http.URL)
	}
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond, Heartbeat: time.Second, Peers: urls,
	})
	runCoordinated(t, coord, spec, local)
	reconnects, _ := shardWatchCounters(t, coord)
	t.Logf("%v reconnects", reconnects)
	if reconnects == 0 {
		t.Error("no stream reconnect counted although the workers truncate every lagging watcher")
	}
}

// aliveWorkers counts the coordinator's workers currently marked alive.
func aliveWorkers(t *testing.T, coord *testDaemon) int {
	t.Helper()
	workers, err := coord.c.Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, w := range workers {
		if w.Alive {
			alive++
		}
	}
	return alive
}

// TestShardRedispatchOnSeveredStream kills a worker while the coordinator
// is attached to its shard's stream. (httptest.Server.Close alone waits
// for open streams, so it severs nothing mid-flight; the connections are
// cut until the listener is gone.) The stream error by itself condemns
// nobody: the liveness probe that follows fails, that failure classifies
// Transient, the worker is dead-marked and its shard runs on the survivor.
func TestShardRedispatchOnSeveredStream(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 300, Seed: 31, SampleEvery: 64, Shards: 2}
	local := localReference(t, spec)

	fleet, urls := startWorkerFleet(t, 2)
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond, Heartbeat: 50 * time.Millisecond, Peers: urls,
	})
	ctx := context.Background()
	st, err := coord.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until worker 1 is executing its shard, then cut it off.
	victim := fleet[1]
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		jobs, err := victim.c.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) > 0 && jobs[0].Progress != nil && jobs[0].Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker 1 never started its shard")
		}
	}
	closed := make(chan struct{})
	go func() {
		victim.http.Close()
		close(closed)
	}()
	for severed := false; !severed; {
		victim.http.CloseClientConnections()
		select {
		case <-closed:
			severed = true
		case <-time.After(time.Millisecond):
		}
	}

	final := waitDone(t, coord.c, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("job settled as %s after its worker was severed: %s", final.State, final.Error)
	}
	merged, err := coord.c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "severed", local, merged)
	if alive := aliveWorkers(t, coord); alive != 1 {
		t.Errorf("want exactly 1 alive worker after the kill, got %d", alive)
	}
	if _, probes := shardWatchCounters(t, coord); probes == 0 {
		t.Error("a severed shard stream triggered no liveness probe")
	}
}

// TestShardRedispatchOnSilentWorker: a worker that accepts a shard, opens
// its stream and then says nothing — and answers no status GET — must not
// hold the job. One Heartbeat of silence triggers the liveness probe, the
// probe's failure is what dead-marks the worker, and the shard re-runs on
// the healthy one.
func TestShardRedispatchOnSilentWorker(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 40, Seed: 8, SampleEvery: 64, Shards: 2}
	local := localReference(t, spec)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(service.JobStatus{ID: "1", State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "wedged", http.StatusInternalServerError)
	})
	silent := httptest.NewServer(mux)
	defer silent.Close()

	_, urls := startWorkerFleet(t, 1)
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		Peers: []string{silent.URL, urls[0]},
	})
	start := time.Now()
	runCoordinated(t, coord, spec, local)
	// The probe's own retries (0.7 s of backoff) dominate; the silence that
	// triggered it is one 50 ms heartbeat.
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("job with one silent worker took %v, want a few heartbeats plus one probe", d)
	}
	if _, probes := shardWatchCounters(t, coord); probes == 0 {
		t.Error("a silent shard stream triggered no liveness probe")
	}
	if alive := aliveWorkers(t, coord); alive != 1 {
		t.Errorf("want the silent worker dead-marked and the healthy one alive, got %d alive", alive)
	}
}
