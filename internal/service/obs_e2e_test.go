package service_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/service"
)

// promValue extracts the value of the first sample in a Prometheus text
// body whose series starts with prefix (name plus any label prelude).
func promValue(t *testing.T, body, prefix string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse prometheus line %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func fetchProm(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus metrics Content-Type = %q, want text/plain", ct)
	}
	return string(body)
}

// TestTracePropagationAndMergedHistograms is the coordinated-observability
// acceptance test: a trace ID set at submission must appear on the job's
// status, in its stream events, and — extended with per-shard span
// suffixes — in each worker's journal header and shard-job status; and
// the coordinator's merged experiment-latency histograms must count
// exactly the per-outcome totals of the same campaign run unsharded
// (latencies are wall clock, but which outcome each experiment lands in
// is deterministic, so the merged counts are exact).
func TestTracePropagationAndMergedHistograms(t *testing.T) {
	const traceID = "it-trace-42"
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 24, Seed: 77, SampleEvery: 64, Shards: 4}
	local := localReference(t, spec)

	workerDirs := []string{t.TempDir(), t.TempDir()}
	var urls []string
	var workers []*testDaemon
	for _, dir := range workerDirs {
		d := startDaemon(t, dir, service.Config{ProgressEvery: 10 * time.Millisecond})
		workers = append(workers, d)
		urls = append(urls, d.http.URL)
	}
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond,
		Heartbeat:     100 * time.Millisecond,
		Peers:         urls,
	})

	// Submit over raw HTTP so the X-Faultprop-Trace header is exercised
	// end to end, not just the Go API.
	body := fmt.Sprintf(`{"app":%q,"scale":%q,"runs":%d,"seed":%d,"sampleEvery":%d,"shards":%d}`,
		spec.App, spec.Scale, spec.Runs, spec.Seed, spec.SampleEvery, spec.Shards)
	req, err := http.NewRequest(http.MethodPost, coord.http.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"trace": "`+traceID+`"`)) {
		t.Errorf("submitted status %s does not echo trace %q", raw, traceID)
	}
	st, err := coord.c.Jobs(context.Background())
	if err != nil || len(st) != 1 {
		t.Fatalf("jobs = %v, %v", st, err)
	}
	id := st[0].ID
	if st[0].Trace != traceID {
		t.Errorf("job trace = %q, want %q", st[0].Trace, traceID)
	}

	final := waitDone(t, coord.c, id)
	if final.State != service.StateDone {
		t.Fatalf("job settled as %s: %s", final.State, final.Error)
	}

	// Every worker-side shard job carries a span derived from the trace,
	// and the span is stamped into the shard's journal header on disk.
	ctx := context.Background()
	shardJobs := 0
	for wi, d := range workers {
		jobs, err := d.c.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, wj := range jobs {
			shardJobs++
			if !strings.HasPrefix(wj.Trace, traceID+"/s") {
				t.Errorf("worker %d job %s trace = %q, want prefix %q", wi, wj.ID, wj.Trace, traceID+"/s")
			}
			journal := filepath.Join(workerDirs[wi], "job-"+wj.ID+".ckpt.jsonl")
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Errorf("worker %d journal: %v", wi, err)
				continue
			}
			header, _, _ := strings.Cut(string(data), "\n")
			if !strings.Contains(header, `"trace":"`+traceID+`/s`) {
				t.Errorf("worker %d journal header %q lacks span of trace %q", wi, header, traceID)
			}
		}
	}
	if shardJobs < spec.Shards {
		t.Errorf("workers ran %d shard jobs, want at least %d", shardJobs, spec.Shards)
	}

	// Stream events of the finished job all carry the trace.
	events := 0
	if _, err := coord.c.Watch(ctx, id, func(ev service.Event) error {
		events++
		if ev.Trace != traceID {
			return fmt.Errorf("event %d (%s) trace = %q, want %q", events, ev.Kind, ev.Trace, traceID)
		}
		return nil
	}); err != nil {
		t.Errorf("watch: %v", err)
	}
	if events == 0 {
		t.Error("finished job streamed no events")
	}

	// The coordinator's registry absorbed the shard partials' histograms:
	// per-outcome experiment counts must equal the unsharded run's tally,
	// and the shard-duration histogram must have one sample per shard.
	prom := fetchProm(t, coord.http.URL)
	total := 0.0
	for o := 0; o < classify.NumOutcomes; o++ {
		name := classify.Outcome(o).String()
		got, _ := promValue(t, prom, fmt.Sprintf("faultpropd_experiment_seconds_count{outcome=%q}", name))
		if int(got) != local.Tally.Counts[o] {
			t.Errorf("merged histogram count for %s = %v, want %d (unsharded tally)",
				name, got, local.Tally.Counts[o])
		}
		total += got
	}
	if int(total) != spec.Runs {
		t.Errorf("merged histogram total = %v, want %d", total, spec.Runs)
	}
	if n, ok := promValue(t, prom, "faultpropd_shard_seconds_count"); !ok || int(n) != spec.Shards {
		t.Errorf("shard duration samples = %v (present %v), want %d", n, ok, spec.Shards)
	}
}

// TestMetricsEndpointFormats: GET /v1/metrics stays JSON for typed
// clients and serves the Prometheus text form — including the phase and
// queue-wait histograms — on ?format=prometheus or Accept: text/plain.
func TestMetricsEndpointFormats(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1})
	ctx := context.Background()
	st, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 6, Seed: 11, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d.c, st.ID)

	// JSON default (the typed client path) still decodes.
	m, err := d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone != 1 {
		t.Errorf("metrics JobsDone = %d, want 1", m.JobsDone)
	}

	prom := fetchProm(t, d.http.URL)
	for _, want := range []string{
		`faultpropd_experiment_seconds_bucket{outcome=`,
		`faultpropd_experiment_phase_seconds_bucket{phase="execute"`,
		`faultpropd_experiment_phase_seconds_bucket{phase="inject"`,
		`faultpropd_experiment_phase_seconds_bucket{phase="classify"`,
		`faultpropd_queue_wait_seconds_count`,
		`faultpropd_http_requests_total{method="POST"}`,
		`faultpropd_stream_drops_total`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output lacks %q", want)
		}
	}
	if n, ok := promValue(t, prom, "faultpropd_queue_wait_seconds_count"); !ok || n < 1 {
		t.Errorf("queue wait samples = %v (present %v), want >= 1", n, ok)
	}
	total := 0.0
	for o := 0; o < classify.NumOutcomes; o++ {
		v, _ := promValue(t, prom, fmt.Sprintf("faultpropd_experiment_seconds_count{outcome=%q}", classify.Outcome(o).String()))
		total += v
	}
	if int(total) != 6 {
		t.Errorf("experiment latency samples = %v, want 6", total)
	}

	// Accept-based negotiation reaches the same renderer.
	req, _ := http.NewRequest(http.MethodGet, d.http.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "faultpropd_queue_wait_seconds_count") {
		t.Error("Accept: text/plain did not yield the Prometheus form")
	}

	// The unversioned scrape endpoint carries the registry series too.
	resp, err = http.Get(d.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "faultpropd_experiment_phase_seconds_bucket") {
		t.Error("GET /metrics lacks the registry histograms")
	}
}

// slowFirstStream throttles the first event-stream connection through a
// handler: every write on that connection sleeps, so the subscriber's
// hub channel overflows and the daemon truncates it. Loopback socket
// buffers are far larger than any test campaign's event volume, so
// without the throttle a laggard can never form naturally here.
type slowFirstStream struct {
	next      http.Handler
	throttled atomic.Int32
}

func (s *slowFirstStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/stream") && s.throttled.CompareAndSwap(0, 1) {
		s.next.ServeHTTP(&slowWriter{ResponseWriter: w}, r)
		return
	}
	s.next.ServeHTTP(w, r)
}

type slowWriter struct{ http.ResponseWriter }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(5 * time.Millisecond)
	return w.ResponseWriter.Write(p)
}

func (w *slowWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamTruncationAndReconnect is the slow-subscriber E2E test: a
// watcher that cannot keep up with a running job's event stream must be
// cut with an explicit truncated event (not a silent close), the drop
// must land in the stream-drop metric, and the client's Watch must
// reconnect and — thanks to the journal replay on resubscribe — still
// observe every experiment exactly once by ID.
func TestStreamTruncationAndReconnect(t *testing.T) {
	srv, err := service.New(service.Config{
		Dir:           t.TempDir(),
		JobSlots:      1,
		WorkerPool:    2,
		ProgressEvery: 2 * time.Millisecond,
		StreamBuffer:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(&slowFirstStream{next: srv.Handler()})
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx)
	}()
	c, err := service.NewClient(hs.URL, service.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	const runs = 400
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: runs, Seed: 7, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}

	truncations := 0
	seen := make(map[int]bool)
	final, err := c.Watch(ctx, st.ID, func(ev service.Event) error {
		switch ev.Kind {
		case service.EventTruncated:
			truncations++
		case service.EventExperiment:
			seen[ev.Experiment.ID] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job settled as %s: %s", final.State, final.Error)
	}
	if truncations == 0 {
		t.Error("throttled watcher was never truncated; want an explicit truncated event")
	}
	if len(seen) != runs {
		t.Errorf("watcher observed %d distinct experiments across reconnects, want %d", len(seen), runs)
	}
	if drops := srv.Metrics().StreamDrops; drops < 1 {
		t.Errorf("StreamDrops = %d, want >= 1", drops)
	}
}

// TestMetricsCountMPIDeadlocks: a job containing a known stall (LAMMPS at
// test scale, seed 2023, experiment 234: every rank blocks in MPI at
// mismatched call sites) finishes in experiment time, and the registry says
// why: one deadlock detected, no wall-clock timeout — the series that
// answers "is the fast path being taken?" for the mpi layer.
func TestMetricsCountMPIDeadlocks(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1})
	st, err := d.c.Submit(context.Background(), service.JobSpec{
		App: "LAMMPS", Scale: "test", Runs: 240, Seed: 2023, SampleEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d.c, st.ID)
	prom := fetchProm(t, d.http.URL)
	if n, ok := promValue(t, prom, "faultpropd_mpi_deadlocks_total"); !ok || n != 1 {
		t.Errorf("faultpropd_mpi_deadlocks_total = %v (present %v), want 1", n, ok)
	}
	if n, ok := promValue(t, prom, "faultpropd_mpi_timeouts_total"); !ok || n != 0 {
		t.Errorf("faultpropd_mpi_timeouts_total = %v (present %v), want 0", n, ok)
	}
}

// TestMetricsReportBackedBytes: the registry answers "is the small path
// being taken?" for memory. LULESH at test scale, seed 2015, stores 4 MiB
// above its data within the first 60 experiments; the four ranks of the
// largest experiment must still have held well under the 32 MiB four flat
// address spaces are.
func TestMetricsReportBackedBytes(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1})
	st, err := d.c.Submit(context.Background(), service.JobSpec{
		App: "LULESH", Scale: "test", Runs: 60, Seed: 2015, SampleEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d.c, st.ID)
	n, ok := promValue(t, fetchProm(t, d.http.URL), "faultpropd_vm_backed_bytes")
	if !ok || n <= 0 || n > 1<<20 {
		t.Errorf("faultpropd_vm_backed_bytes = %v (present %v), want within (0, 1 MiB]", n, ok)
	}
}
