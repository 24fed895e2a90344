package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/harness"
	"repro/internal/service"
)

// A cache hit is a verified view of its archive entry: these tests pin
// what that means on the wire, on disk, and when the entry is damaged
// after the hit was handed out.

var hitSpec = service.JobSpec{App: "LULESH", Scale: "test", Runs: 14, Seed: 5, SampleEvery: 64}

// settle submits spec and waits for the job to be done, as a cache hit or
// not as the caller expects.
func settle(t *testing.T, d *testDaemon, spec service.JobSpec, wantHit bool) service.JobStatus {
	t.Helper()
	st, err := d.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d.c, st.ID)
	if st.State != service.StateDone || st.CacheHit != wantHit {
		t.Fatalf("job %s settled as %s cacheHit=%v (want done, cacheHit=%v): %s",
			st.ID, st.State, st.CacheHit, wantHit, st.Error)
	}
	return st
}

// get fetches path from the daemon with an optional Accept header.
func get(t *testing.T, d *testDaemon, path, accept string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, d.http.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// streamOf reads a settled job's whole NDJSON stream, with the fields that
// name the job or number its live publications, rather than tell its
// history, blanked (a watcher attaching in the instant between a job's
// done status and its hub's close gets the published result event, seq
// and all, where a later one gets the synthetic epilogue).
func streamOf(t *testing.T, d *testDaemon, id string) []service.Event {
	t.Helper()
	code, body := get(t, d, "/v1/jobs/"+id+"/stream", "")
	if code != http.StatusOK {
		t.Fatalf("GET stream %s = %d", id, code)
	}
	var events []service.Event
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream %s: line %q: %v", id, line, err)
		}
		ev.Job, ev.Trace, ev.Seq = "", "", 0
		events = append(events, ev)
	}
	return events
}

func experimentsIn(events []service.Event) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == service.EventExperiment {
			n++
		}
	}
	return n
}

// byExperiment orders a settled job's stream by experiment ID (the
// terminal event stays last): journal order is completion order, which two
// runs of one campaign need not share.
func byExperiment(events []service.Event) []service.Event {
	out := append([]service.Event(nil), events...)
	sort.SliceStable(out, func(i, k int) bool {
		a, b := out[i].Experiment, out[k].Experiment
		return a != nil && (b == nil || a.ID < b.ID)
	})
	return out
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoredDocumentsTravelVerbatim: the body of GET result is the file
// finish wrote, byte for byte — for the job that ran and for its cache hit,
// whose bytes are the archive entry's — and the body of GET partial is the
// shard job's stored partial. Client.Result still decodes both.
func TestStoredDocumentsTravelVerbatim(t *testing.T) {
	arch, data := t.TempDir(), t.TempDir()
	d := startDaemon(t, data, service.Config{ArchiveDir: arch})
	miss := settle(t, d, hitSpec, false)
	hit := settle(t, d, hitSpec, true)

	stored := mustRead(t, filepath.Join(data, "job-"+miss.ID+".result.json"))
	archived := mustRead(t, filepath.Join(arch, "entries", miss.Fingerprint, "result.json"))
	if !bytes.Equal(stored, archived) {
		t.Fatal("job store and archive hold different result bytes")
	}
	for _, st := range []service.JobStatus{miss, hit} {
		if body := rawResult(t, d.http.URL, st.ID); !bytes.Equal(body, stored) {
			t.Errorf("GET result of job %s (cacheHit=%v): %d bytes on the wire, %d stored — not the same bytes",
				st.ID, st.CacheHit, len(body), len(stored))
		}
	}
	ctx := context.Background()
	orig, err := d.c.Result(ctx, miss.ID)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := d.c.Result(ctx, hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if harness.RenderStudy(orig) != harness.RenderStudy(cached) {
		t.Error("rendered study differs between the run and its cache hit")
	}

	// Shard partials: run a two-shard job and compare every worker-side
	// shard job's /partial body with its stored file.
	workerDir := t.TempDir()
	worker := startDaemon(t, workerDir, service.Config{})
	coord := startDaemon(t, t.TempDir(), service.Config{Peers: []string{worker.http.URL}})
	sharded := hitSpec
	sharded.Shards = 2
	settle(t, coord, sharded, false)
	shards, err := worker.c.Jobs(ctx)
	if err != nil || len(shards) != 2 {
		t.Fatalf("worker ran %d shard jobs (err %v), want 2", len(shards), err)
	}
	for _, sh := range shards {
		code, body := get(t, worker, "/v1/jobs/"+sh.ID+"/partial", "")
		want := mustRead(t, filepath.Join(workerDir, "job-"+sh.ID+".partial.json"))
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("GET partial of shard job %s = %d, %d bytes; stored %d bytes", sh.ID, code, len(body), len(want))
		}
	}
}

// TestCacheHitWritesOneFile: a hit persists its status record and nothing
// else — disk per hit does not grow with the entry.
func TestCacheHitWritesOneFile(t *testing.T) {
	data := t.TempDir()
	d := startDaemon(t, data, service.Config{ArchiveDir: t.TempDir()})
	settle(t, d, hitSpec, false)
	ls := func() map[string]bool {
		entries, err := os.ReadDir(data)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, e := range entries {
			names[e.Name()] = true
		}
		return names
	}
	before := ls()
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, "job-"+settle(t, d, hitSpec, true).ID+".json")
	}
	var added []string
	for name := range ls() {
		if !before[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	sort.Strings(want)
	if !reflect.DeepEqual(added, want) {
		t.Errorf("3 cache hits added %v to the job store, want exactly %v", added, want)
	}
}

// TestCacheHitStatusMatchesOriginal: the status of a hit carries the same
// summary of the result as the status of the run it stands for, the
// per-stratum table of an adaptive campaign included.
func TestCacheHitStatusMatchesOriginal(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir()})
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 60, Seed: 2015, SampleEvery: 64,
		Sampling: &service.SamplingSpec{TargetCI: 0.25, Strata: 2}}
	miss := settle(t, d, spec, false)
	hit := settle(t, d, spec, true)
	if len(miss.Strata) == 0 {
		t.Fatal("the adaptive run's status has no strata table")
	}
	if !reflect.DeepEqual(hit.Strata, miss.Strata) {
		t.Errorf("strata of the hit %+v differ from the run's %+v", hit.Strata, miss.Strata)
	}
	if hit.Tally == nil || miss.Tally == nil || *hit.Tally != *miss.Tally {
		t.Errorf("tally of the hit %+v differs from the run's %+v", hit.Tally, miss.Tally)
	}
	if hit.FPS != miss.FPS {
		t.Errorf("FPS of the hit %v differs from the run's %v", hit.FPS, miss.FPS)
	}
}

// TestCacheHitMetrics: the Prometheus text tells whether the fast path is
// taken (one cache_hit_seconds observation per hit, no verification
// failure on an intact archive); the frozen JSON document does not grow.
func TestCacheHitMetrics(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir()})
	settle(t, d, hitSpec, false)
	settle(t, d, hitSpec, true)
	settle(t, d, hitSpec, true)
	prom := fetchProm(t, d.http.URL)
	if v, ok := promValue(t, prom, "faultpropd_cache_hit_seconds_count"); !ok || v != 2 {
		t.Errorf("faultpropd_cache_hit_seconds_count = %v (present=%v), want 2", v, ok)
	}
	if v, ok := promValue(t, prom, "faultpropd_archive_verify_failures_total"); !ok || v != 0 {
		t.Errorf("faultpropd_archive_verify_failures_total = %v (present=%v), want 0", v, ok)
	}
	_, doc := get(t, d, "/v1/metrics", "")
	for _, key := range []string{"cache_hit_seconds", "verify", "cacheHitSeconds"} {
		if bytes.Contains(doc, []byte(key)) {
			t.Errorf("the JSON metrics document mentions %q", key)
		}
	}
}

// TestCacheHitNeverServesDamagedEntry: damage done to an archive entry
// after a hit was handed out must never reach the hit job's clients. The
// read of the damaged file answers "no result" (or replays no history),
// the untouched file keeps serving, a resubmission runs fresh and heals
// the slot, and then the old hit job serves the original bytes again.
func TestCacheHitNeverServesDamagedEntry(t *testing.T) {
	flip := func(path string, data []byte) error {
		data[len(data)/2] ^= 0x01
		return os.WriteFile(path, data, 0o644)
	}
	truncate := func(path string, data []byte) error {
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	}
	remove := func(path string, _ []byte) error { return os.Remove(path) }
	for _, tc := range []struct {
		name, file string
		damage     func(string, []byte) error
	}{
		{"result-flipped", "result.json", flip},
		{"result-truncated", "result.json", truncate},
		{"result-removed", "result.json", remove},
		{"journal-flipped", "journal.jsonl", flip},
		{"journal-truncated", "journal.jsonl", truncate},
		{"journal-removed", "journal.jsonl", remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arch := t.TempDir()
			d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
			ctx := context.Background()
			settle(t, d, hitSpec, false)
			hit := settle(t, d, hitSpec, true)
			result := rawResult(t, d.http.URL, hit.ID)
			stream := streamOf(t, d, hit.ID)
			if experimentsIn(stream) != hitSpec.Runs {
				t.Fatalf("intact hit replays %d experiments, want %d", experimentsIn(stream), hitSpec.Runs)
			}

			path := filepath.Join(arch, "entries", hit.Fingerprint, tc.file)
			if err := tc.damage(path, mustRead(t, path)); err != nil {
				t.Fatal(err)
			}

			if tc.file == "result.json" {
				code, body := get(t, d, "/v1/jobs/"+hit.ID+"/result", "")
				if code != http.StatusConflict || !bytes.Contains(body, []byte(`"no_result"`)) {
					t.Errorf("GET result over a damaged entry = %d (%d bytes), want 409 with code no_result", code, len(body))
				}
				if _, err := d.c.Result(ctx, hit.ID); !errors.Is(err, service.ErrNoResult) {
					t.Errorf("Client.Result = %v, want errors.Is ErrNoResult", err)
				}
				// In process, where the whole chain is visible: the fetch
				// must route Permanent, so it may not chain to ErrCorrupt.
				_, err := d.srv.Result(hit.ID)
				if !errors.Is(err, service.ErrNoResult) || errors.Is(err, archive.ErrCorrupt) ||
					service.Classify(err) != service.CategoryPermanent {
					t.Errorf("Server.Result = %v (category %s), want ErrNoResult, not ErrCorrupt, permanent",
						err, service.Classify(err))
				}
				if got := streamOf(t, d, hit.ID); !reflect.DeepEqual(got, stream) {
					t.Error("damage to the result changed the stream, which reads the journal alone")
				}
			} else {
				got := streamOf(t, d, hit.ID)
				if len(got) != 1 || !reflect.DeepEqual(got[0], stream[len(stream)-1]) {
					t.Errorf("stream over a damaged journal = %d events, want the terminal result event alone", len(got))
				}
				if got := rawResult(t, d.http.URL, hit.ID); !bytes.Equal(got, result) {
					t.Error("damage to the journal changed the result, which reads result.json alone")
				}
			}
			if v, ok := promValue(t, fetchProm(t, d.http.URL), "faultpropd_archive_verify_failures_total"); !ok || v < 1 {
				t.Errorf("faultpropd_archive_verify_failures_total = %v (present=%v), want >= 1", v, ok)
			}

			// Whichever file is damaged, the next submission finds the entry
			// corrupt, runs fresh and heals the slot.
			settle(t, d, hitSpec, false)
			if got := rawResult(t, d.http.URL, hit.ID); !bytes.Equal(got, result) {
				t.Error("after the slot healed the old hit job does not serve the original bytes")
			}
			if got := streamOf(t, d, hit.ID); !reflect.DeepEqual(byExperiment(got), byExperiment(stream)) {
				t.Error("after the slot healed the old hit job does not replay the whole history")
			}
			settle(t, d, hitSpec, true)
		})
	}
}

// TestCacheHitWithoutItsArchive: a daemon restarted over the same job
// store but without the archive still knows its old hit jobs, and answers
// "no result" for them; jobs that ran keep their stored result.
func TestCacheHitWithoutItsArchive(t *testing.T) {
	data := t.TempDir()
	d1 := startDaemon(t, data, service.Config{ArchiveDir: t.TempDir()})
	miss := settle(t, d1, hitSpec, false)
	hit := settle(t, d1, hitSpec, true)
	result := rawResult(t, d1.http.URL, hit.ID)
	d1.stop(t)

	d2 := startDaemon(t, data, service.Config{})
	st, err := d2.c.Job(context.Background(), hit.ID)
	if err != nil || !st.CacheHit || st.State != service.StateDone {
		t.Fatalf("restarted daemon knows hit job as %+v (err %v)", st, err)
	}
	if _, err := d2.c.Result(context.Background(), hit.ID); !errors.Is(err, service.ErrNoResult) {
		t.Errorf("Result of a hit job without its archive = %v, want errors.Is ErrNoResult", err)
	}
	if got := streamOf(t, d2, hit.ID); len(got) != 1 || got[0].Kind != service.EventResult {
		t.Errorf("stream of a hit job without its archive = %+v, want the terminal result event alone", got)
	}
	if got := rawResult(t, d2.http.URL, miss.ID); !bytes.Equal(got, result) {
		t.Error("the job that ran lost its stored result across the restart")
	}
}

// TestCacheHitStreamEqualsLateWatcherStream: the stream of a hit — the
// archived journal through the event-only reader — is, event for event,
// the stream a late watcher of the original finished job gets from the job
// store's journal, for every application and for a journal carrying plan
// records, strata and site patterns. The SSE form frames the same events,
// each as its own data: line.
func TestCacheHitStreamEqualsLateWatcherStream(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir()})
	specs := []service.JobSpec{
		{App: "LULESH", Scale: "test", Runs: 60, Seed: 2015, SampleEvery: 64,
			Sampling: &service.SamplingSpec{TargetCI: 0.25, Strata: 2, Sites: true}},
	}
	for _, app := range []string{"LULESH", "miniFE", "LAMMPS", "AMG2013", "MCB"} {
		specs = append(specs, service.JobSpec{App: app, Scale: "test", Runs: 10, Seed: 31, SampleEvery: 64})
	}
	for _, spec := range specs {
		miss := settle(t, d, spec, false)
		hit := settle(t, d, spec, true)
		want, got := streamOf(t, d, miss.ID), streamOf(t, d, hit.ID)
		if n := experimentsIn(want); n == 0 || (!spec.Adaptive() && n != spec.Runs) {
			t.Fatalf("%s: late watcher saw %d experiments of %d", spec.App, n, spec.Runs)
		}
		if want[len(want)-1].Kind != service.EventResult {
			t.Fatalf("%s: late watcher's stream ends with %q", spec.App, want[len(want)-1].Kind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (adaptive=%v): the hit's stream (%d events) differs from the late watcher's (%d events)",
				spec.App, spec.Adaptive(), len(got), len(want))
		}

		code, body := get(t, d, "/v1/jobs/"+hit.ID+"/stream", "text/event-stream")
		if code != http.StatusOK {
			t.Fatalf("%s: SSE stream = %d", spec.App, code)
		}
		var sse []service.Event
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			payload, ok := strings.CutPrefix(line, "data: ")
			var ev service.Event
			if !ok || json.Unmarshal([]byte(payload), &ev) != nil {
				t.Fatalf("%s: SSE line %q is not one framed event", spec.App, line)
			}
			ev.Job, ev.Trace, ev.Seq = "", "", 0
			sse = append(sse, ev)
		}
		if !reflect.DeepEqual(sse, want) {
			t.Errorf("%s: SSE stream (%d events) differs from the NDJSON one (%d events)", spec.App, len(sse), len(want))
		}
	}
}

// codecFallbacks reads faultpropd_codec_fallbacks_total of every codec.
func codecFallbacks(t *testing.T, d *testDaemon) map[string]float64 {
	t.Helper()
	body := fetchProm(t, d.http.URL)
	out := make(map[string]float64)
	for _, codec := range []string{"journal", "replay", "result", "event"} {
		v, ok := promValue(t, body, `faultpropd_codec_fallbacks_total{codec="`+codec+`"}`)
		if !ok {
			t.Fatalf("/metrics has no fallback count of the %s codec", codec)
		}
		out[codec] = v
	}
	return out
}

// TestCacheHitTakesEveryFastPath: serving a hit of engine-written bytes —
// an adaptive, per-site, stratified campaign — hands nothing to
// encoding/json's fallbacks. Every
// faultpropd_codec_fallbacks_total series stays where it was through the
// submit, the watch, the result and the archive entry. The counters are
// process-wide, and client and daemon share this process.
func TestCacheHitTakesEveryFastPath(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir()})
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 60, Seed: 2015, SampleEvery: 64,
		Sampling: &service.SamplingSpec{TargetCI: 0.25, Strata: 2, Sites: true}}
	settle(t, d, spec, false)
	ctx := context.Background()
	before := codecFallbacks(t, d)
	hit := settle(t, d, spec, true)
	experiments := 0
	if _, err := d.c.Watch(ctx, hit.ID, func(ev service.Event) error {
		if ev.Experiment != nil {
			experiments++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := d.c.Result(ctx, hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := d.srv.ArchiveEntry(hit.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if experiments == 0 || len(res.Experiments) == 0 || len(entry.Result.Experiments) == 0 {
		t.Fatalf("the hit streamed %d experiments and its result holds %d (%d in the entry)",
			experiments, len(res.Experiments), len(entry.Result.Experiments))
	}
	if after := codecFallbacks(t, d); !reflect.DeepEqual(after, before) {
		t.Errorf("codec fallbacks moved across a hit: %v, then %v", before, after)
	}
}

// TestCacheHitAllocationBudget is the guard that does not depend on the
// runner's speed: a hit moves stored bytes, so what one allocates — client
// and daemon together, submit + watch + result — stays under 384 KiB and
// 1,050 allocations. The design that decoded and re-encoded the result,
// parsed every journal record in full and copied the entry allocated
// 2.05 MiB; the one that then decoded the archived result for the hit's
// status, every journal record's trace points for its stream, and each
// event and result on the client by reflection allocated 0.58 MiB in
// 2,219 allocations. Decoding through the codecs made it 0.40 MiB in
// about 910, and giving a settled job's watcher no 256-event buffer and
// the client's event scanner a 4 KiB one instead of 64 KiB 0.31 MiB.
func TestCacheHitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: t.TempDir(), ProgressEvery: time.Hour})
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 80, Seed: 2015, SampleEvery: 256}
	settle(t, d, spec, false)
	ctx := context.Background()
	hit := func() {
		st, err := d.c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		final, err := d.c.Watch(ctx, st.ID, nil)
		if err != nil || !final.CacheHit {
			t.Fatalf("watch: cacheHit=%v err=%v", final.CacheHit, err)
		}
		if _, err := d.c.Result(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	hit() // connections, pools
	const hits = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits / (1 << 20)
	mallocs := (after.Mallocs - before.Mallocs) / hits
	t.Logf("%.2f MiB and %d mallocs per hit", perHit, mallocs)
	if perHit >= 0.375 {
		t.Errorf("a cache hit allocates %.2f MiB, budget 0.375 MiB", perHit)
	}
	if mallocs >= 1050 {
		t.Errorf("a cache hit makes %d allocations, budget 1,050", mallocs)
	}
}
