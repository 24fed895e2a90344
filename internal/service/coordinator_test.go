package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// startWorkerFleet spins up n independent worker daemons and returns their
// API base URLs. Workers are plain daemons — no coordinator-specific mode.
func startWorkerFleet(t *testing.T, n int) ([]*testDaemon, []string) {
	t.Helper()
	var fleet []*testDaemon
	var urls []string
	for i := 0; i < n; i++ {
		d := startDaemon(t, t.TempDir(), service.Config{
			ProgressEvery: 10 * time.Millisecond,
		})
		fleet = append(fleet, d)
		urls = append(urls, d.http.URL)
	}
	return fleet, urls
}

func localReference(t *testing.T, spec service.JobSpec) *harness.CampaignResult {
	t.Helper()
	cfg, err := spec.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoordinatedShardDeterminism is the scale-out acceptance gate: a
// campaign split into 4 shards across 2 worker processes and merged by
// the coordinator must be byte-identical — experiments, tallies, and FPS
// fits — to the same campaign run in one process.
func TestCoordinatedShardDeterminism(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 22, Seed: 909, SampleEvery: 64, Shards: 4}
	local := localReference(t, spec)

	_, urls := startWorkerFleet(t, 2)
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond,
		Heartbeat:     100 * time.Millisecond,
		Peers:         urls,
	})

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
	assertSameCampaign(t, "coordinated", local, merged)

	lj, _ := json.Marshal(local)
	mj, _ := json.Marshal(merged)
	if string(lj) != string(mj) {
		t.Errorf("merged result JSON is not byte-identical to the local run (%d vs %d bytes)", len(lj), len(mj))
	}
	if final.Tally == nil || final.Tally.Total != spec.Runs {
		t.Errorf("terminal status tally = %+v, want total %d", final.Tally, spec.Runs)
	}
}

// TestCoordinatorRedispatchOnWorkerDeath kills one of two workers at the
// first experiment of the first shard it runs: its shards must
// re-dispatch onto the survivor, the merged result must still equal the
// single-process run, and the heartbeat must declare the dead worker so.
func TestCoordinatorRedispatchOnWorkerDeath(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 60, Seed: 31, SampleEvery: 64, Shards: 6}
	local := localReference(t, spec)

	fleet, urls := startWorkerFleet(t, 2)
	coord := startDaemon(t, t.TempDir(), service.Config{
		ProgressEvery: 10 * time.Millisecond,
		Heartbeat:     50 * time.Millisecond,
		Peers:         urls,
	})

	ctx := context.Background()
	st, err := coord.c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill worker 1's network endpoint once its first shard has run an
	// experiment. Its in-flight shards fail their polls and must requeue
	// onto worker 0.
	killWorkerAtFirstExperiment(t, fleet[1])

	final := waitDone(t, coord.c, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("job settled as %s after worker death: %s", final.State, final.Error)
	}
	merged, err := coord.c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "redispatched", local, merged)

	// The heartbeat declares the dead worker within a few periods.
	alive, total := 0, 0
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		workers, err := coord.c.Workers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		alive, total = 0, len(workers)
		for _, w := range workers {
			if w.Alive {
				alive++
			}
		}
		if alive == 1 || time.Now().After(deadline) {
			break
		}
	}
	if alive != 1 {
		t.Errorf("want exactly 1 alive worker after the kill, got %d of %d", alive, total)
	}
}

// killWorkerAtFirstExperiment waits for worker w to run a shard, follows
// that shard's event stream to its first experiment and closes the
// worker's network endpoint there.
func killWorkerAtFirstExperiment(t *testing.T, w *testDaemon) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(time.Minute)
	var shard string
	for shard == "" {
		jobs, err := w.c.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) > 0 {
			shard = jobs[0].ID
		} else if time.Now().After(deadline) {
			t.Fatal("worker never received a shard")
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	errFirst := errors.New("first experiment")
	_, err := w.c.Watch(ctx, shard, func(ev service.Event) error {
		if ev.Kind == service.EventExperiment {
			return errFirst
		}
		return nil
	})
	if !errors.Is(err, errFirst) {
		t.Fatalf("shard %s ended without an experiment event: %v", shard, err)
	}
	w.http.Close()
}

// journalIDs lists the experiments the checkpoint journal at path holds,
// in journal order.
func journalIDs(t *testing.T, path string) []int {
	t.Helper()
	var ids []int
	for i, line := range bytes.Split(bytes.TrimSuffix(mustRead(t, path), []byte("\n")), []byte("\n")) {
		var rec struct {
			Kind string           `json:"kind"`
			Sum  struct{ ID int } `json:"sum"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
		if rec.Kind == "exp" {
			ids = append(ids, rec.Sum.ID)
		}
	}
	return ids
}

// shardJobs returns the shard jobs worker w holds that skip does not name,
// by job ID.
func shardJobs(t *testing.T, w *testDaemon, skip map[string]service.JobStatus) map[string]service.JobStatus {
	t.Helper()
	jobs, err := w.c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]service.JobStatus{}
	for _, st := range jobs {
		if _, ok := skip[st.ID]; !ok && st.Spec.Shard != nil {
			out[st.ID] = st
		}
	}
	return out
}

// TestCoordinatorRestartResumesShards drains the coordinator of a
// fixed and of an adaptive job mid-campaign — the adaptive one inside its
// second round, one shard of it folded and the other still running — and
// restarts it over the same store. The restart resumes the job's journal
// and dispatches exactly the experiments it lacks: none it journaled, and
// for the fixed job every other one of [0, Runs). Its resumed count is the
// journal's, and the result bytes are the local run's. The one worker runs
// one shard at a time, so a round's shards land one by one.
func TestCoordinatorRestartResumesShards(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec service.JobSpec
		// drainAt is the journal length the drain waits for: one shard,
		// or the first round (200 of the 1600 budget) and one shard more.
		drainAt int
	}{
		{"fixed", service.JobSpec{App: "LULESH", Scale: "test", Runs: 64, Seed: 440, SampleEvery: 64, Shards: 8}, 8},
		{"adaptive", service.JobSpec{App: "LULESH", Scale: "test", Runs: 1600, Seed: 440, SampleEvery: 64, Shards: 2,
			Sampling: &service.SamplingSpec{TargetCI: 0.04, Strata: 2}}, 201},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			local := localReference(t, spec)
			worker := startDaemon(t, t.TempDir(), service.Config{ProgressEvery: 10 * time.Millisecond, JobSlots: 1})
			dir := t.TempDir()
			cfg := service.Config{ProgressEvery: 10 * time.Millisecond, Heartbeat: 100 * time.Millisecond,
				Peers: []string{worker.http.URL}}
			coord := startDaemon(t, dir, cfg)
			st, err := coord.c.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			journal := filepath.Join(dir, "job-"+st.ID+".ckpt.jsonl")
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
				if data, err := os.ReadFile(journal); err == nil && bytes.Count(data, []byte("\n")) > tc.drainAt {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("too few experiments journaled before the drain")
				}
			}
			coord.stop(t)
			before := journalIDs(t, journal)
			dispatched := shardJobs(t, worker, nil)
			// What the drained coordinator dispatched and did not journal:
			// the shards it cancelled.
			inJournal := map[int]bool{}
			for _, id := range before {
				inJournal[id] = true
			}
			unfolded := map[int]bool{}
			for _, sh := range dispatched {
				for _, id := range sh.Spec.Shard.IDs {
					if !inJournal[id] {
						unfolded[id] = true
					}
				}
			}

			restarted := startDaemon(t, dir, cfg)
			final := waitDone(t, restarted.c, st.ID)
			if final.State != service.StateDone {
				t.Fatalf("restarted job settled as %s: %s", final.State, final.Error)
			}
			if final.Resumed != len(before) || final.Progress == nil || final.Progress.Resumed != len(before) {
				t.Errorf("the restart resumed %d (progress %+v), want the %d journaled", final.Resumed, final.Progress, len(before))
			}
			var after []int
			redone := 0
			for _, sh := range shardJobs(t, worker, dispatched) {
				for _, id := range sh.Spec.Shard.IDs {
					if inJournal[id] {
						t.Errorf("the restart dispatched experiment %d, which its journal holds", id)
					}
					if unfolded[id] {
						redone++
					}
					after = append(after, id)
				}
			}
			if redone == 0 {
				t.Errorf("the drain landed between batches: the restart re-dispatched none of the %d experiments it cancelled", len(unfolded))
			}
			all := append(append([]int(nil), before...), after...)
			sort.Ints(all)
			if got := journalIDs(t, journal); len(got) != len(all) || final.Tally.Total != len(all) {
				t.Errorf("journal holds %d experiments, the tally %d, the two runs dispatched %d", len(got), final.Tally.Total, len(all))
			}
			if spec.Sampling == nil {
				for i, id := range all {
					if id != i {
						t.Fatalf("the journaled and re-dispatched experiments are not [0,%d): %v", spec.Runs, all)
					}
				}
			}
			t.Logf("%d journaled before the drain, %d cancelled, %d dispatched after it", len(before), len(unfolded), len(after))
			merged, err := restarted.c.Result(context.Background(), st.ID)
			if err != nil {
				t.Fatal(err)
			}
			lj, _ := json.Marshal(local)
			mj, _ := json.Marshal(merged)
			if !bytes.Equal(lj, mj) {
				t.Errorf("restarted result JSON is not byte-identical to the local run (%d vs %d bytes)", len(lj), len(mj))
			}
		})
	}
}

// stubWorker is a peer that finishes every shard job at once: a job whose
// stream ends at once, whose status is done and whose journal is
// journal(spec), spec being the shard it was submitted with. Its version
// document advertises caps. It counts the submissions it took.
func stubWorker(t *testing.T, caps []string, journal func(harness.ShardSpec) []byte) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var submits atomic.Int32
	var mu sync.Mutex
	specs := map[string]harness.ShardSpec{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.VersionInfo{Service: "faultpropd", API: service.APIVersion, Capabilities: caps})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var js service.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&js); err != nil || js.Shard == nil {
			http.Error(w, "not a shard", http.StatusBadRequest)
			return
		}
		id := fmt.Sprint(submits.Add(1))
		mu.Lock()
		specs[id] = *js.Shard
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(service.JobStatus{ID: id, State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobStatus{ID: r.PathValue("id"), State: service.StateDone})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/journal", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		spec := specs[r.PathValue("id")]
		mu.Unlock()
		w.Write(journal(spec))
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, &submits
}

// journalOfShard runs shard spec of cfg's campaign and returns its journal.
func journalOfShard(t *testing.T, cfg harness.CampaignConfig, spec harness.ShardSpec) []byte {
	cfg.Checkpoint = filepath.Join(t.TempDir(), "journal")
	if _, err := harness.RunShard(cfg, spec); err != nil {
		t.Error(err)
		return nil
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Error(err)
	}
	return data
}

// TestCoordinatorRefusesForeignJournal: a worker that hands back a journal
// of another campaign, or one lacking an experiment of its shard, fails
// the job as an integrity violation (fingerprint_mismatch, category
// Fatal), and nothing of the journal reaches the job's own.
func TestCoordinatorRefusesForeignJournal(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 12, Seed: 31, SampleEvery: 64, Shards: 2}
	cfg, err := spec.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	for _, tc := range []struct {
		name    string
		journal func(harness.ShardSpec) []byte
	}{
		{"foreign", func(s harness.ShardSpec) []byte {
			s.Fingerprint = other.Fingerprint()
			return journalOfShard(t, other, s)
		}},
		{"truncated", func(s harness.ShardSpec) []byte {
			data := journalOfShard(t, cfg, s)
			return data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub, _ := stubWorker(t, []string{"journals"}, tc.journal)
			dir := t.TempDir()
			coord := startDaemon(t, dir, service.Config{ProgressEvery: 10 * time.Millisecond, Peers: []string{stub.URL}})
			st, err := coord.c.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitDone(t, coord.c, st.ID)
			if final.State != service.StateFailed || final.ErrorCode != "fingerprint_mismatch" ||
				service.ClassifyCode(final.ErrorCode) != service.CategoryFatal {
				t.Fatalf("the job settled as %s (code %q): %s; want failed on fingerprint_mismatch", final.State, final.ErrorCode, final.Error)
			}
			if ids := journalIDs(t, filepath.Join(dir, "job-"+st.ID+".ckpt.jsonl")); len(ids) != 0 {
				t.Errorf("the refused journal folded experiments %v into the job's", ids)
			}
		})
	}
}

// TestCoordinatorSkipsWorkerWithoutJournals: a peer that does not
// advertise "journals" — a build that parks partials instead — fails the
// heartbeat's probe, is marked dead, and is handed no shard; the job runs
// on the peer that serves journals.
func TestCoordinatorSkipsWorkerWithoutJournals(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 10, Seed: 5, SampleEvery: 64, Shards: 2}
	local := localReference(t, spec)
	old, submits := stubWorker(t, []string{"jobs", "stream", "metrics", "partials", "shards"}, nil)
	_, urls := startWorkerFleet(t, 1)
	coord := startDaemon(t, t.TempDir(), service.Config{ProgressEvery: 10 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond, Peers: []string{old.URL, urls[0]}})
	for deadline := time.Now().Add(time.Minute); aliveWorkers(t, coord) != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the heartbeat never marked the peer without journals dead")
		}
	}
	runCoordinated(t, coord, spec, local)
	if n := submits.Load(); n != 0 {
		t.Errorf("the peer without journals was handed %d shards", n)
	}
	if alive := aliveWorkers(t, coord); alive != 1 {
		t.Errorf("%d workers alive after the job, want the one serving journals", alive)
	}
}

// TestShardSubmitCarriesTenant: the shard jobs a coordinator submits to its
// workers are accounted to the parent job's tenant — the coordinator's
// clients are bound to a worker, not to a tenant, so the identity travels
// as a per-call header on each shard submission.
func TestShardSubmitCarriesTenant(t *testing.T) {
	fleet, urls := startWorkerFleet(t, 1)
	coord := startDaemon(t, t.TempDir(), service.Config{ProgressEvery: 10 * time.Millisecond, Peers: urls})
	alice, err := service.NewClient(coord.http.URL, service.WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := alice.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 8, Seed: 12, SampleEvery: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, alice, st.ID); final.State != service.StateDone {
		t.Fatalf("coordinated job settled as %s: %s", final.State, final.Error)
	}
	shards, err := fleet[0].c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("worker ran %d jobs, want the 2 shards", len(shards))
	}
	for _, sh := range shards {
		if sh.Tenant != "alice" {
			t.Errorf("shard job %s (%s) is accounted to tenant %q, want alice", sh.ID, sh.Spec.Label, sh.Tenant)
		}
	}
}

// TestCoordinatorBusyWithinPool: a coordinated job's shards execute on
// its peers and hold none of the coordinator's workers, so however many
// are in flight the coordinator's workersBusy stays within its pool and
// its utilization within [0, 1]. Counting a job's in-flight shards as busy
// workers read two busy workers of a pool of one here.
func TestCoordinatorBusyWithinPool(t *testing.T) {
	fleet, urls := startWorkerFleet(t, 2)
	var release []func()
	for _, w := range fleet {
		release = append(release, w.srv.HoldDispatch())
	}
	coord := startDaemon(t, t.TempDir(), service.Config{
		WorkerPool: 1, ProgressEvery: 10 * time.Millisecond, Heartbeat: 100 * time.Millisecond, Peers: urls})
	ctx := context.Background()
	st, err := coord.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 10, Seed: 31, SampleEvery: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		js, err := coord.c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.Progress != nil && js.Progress.Running == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the job's two shards were never in flight together; last status %+v", js)
		}
	}
	m, err := coord.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkersBusy > m.WorkerPool || m.Utilization > 1 {
		t.Errorf("workersBusy %d of a pool of %d (utilization %v) with the job's shards on its peers",
			m.WorkersBusy, m.WorkerPool, m.Utilization)
	}
	if v, ok := promValue(t, fetchProm(t, coord.http.URL), "faultpropd_workers_busy"); !ok || v > 1 {
		t.Errorf("faultpropd_workers_busy %v (found %v), want at most the pool of 1", v, ok)
	}
	for _, r := range release {
		r()
	}
	if final := waitDone(t, coord.c, st.ID); final.State != service.StateDone {
		t.Fatalf("coordinated job settled as %s: %s", final.State, final.Error)
	}
}

// TestCompatRedirectsGone pins the removal of the pre-versioning
// /api/v1/* redirects: they were promised for one release (PR 4) and
// that release has passed, so legacy paths now 404 instead of silently
// keeping an extra API surface alive.
func TestCompatRedirectsGone(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	resp, err := http.Get(d.http.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /api/v1/jobs = %d, want 404 (compat redirects removed)", resp.StatusCode)
	}
}

// TestErrorSentinelsOverWire: the wire codes in error bodies must map
// back to the service sentinels on the client side, so errors.Is works
// across the HTTP transport.
func TestErrorSentinelsOverWire(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	ctx := context.Background()

	if _, err := d.c.Job(ctx, "999"); !errors.Is(err, service.ErrJobNotFound) {
		t.Errorf("Job(999) = %v, want errors.Is ErrJobNotFound", err)
	}
	if _, err := d.c.Submit(ctx, service.JobSpec{App: "nope", Runs: 1}); !errors.Is(err, service.ErrInvalidSpec) {
		t.Errorf("Submit(bad app) = %v, want errors.Is ErrInvalidSpec", err)
	}
	if err := d.c.RemoveWorker(ctx, "ghost"); !errors.Is(err, service.ErrWorkerNotFound) {
		t.Errorf("RemoveWorker(ghost) = %v, want errors.Is ErrWorkerNotFound", err)
	}

	release := d.srv.HoldDispatch()
	st, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Journal(ctx, st.ID); !errors.Is(err, service.ErrNoJournal) {
		t.Errorf("Journal(queued job) = %v, want errors.Is ErrNoJournal", err)
	}
	release()
	waitDone(t, d.c, st.ID)
	if journal, err := d.c.Journal(ctx, st.ID); err != nil || !bytes.HasPrefix(journal, []byte(`{"kind":"header"`)) {
		t.Errorf("Journal(done job) = %.60q, %v; want its checkpoint journal", journal, err)
	}

	v, err := d.c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.API != service.APIVersion {
		t.Errorf("version API = %q, want %q", v.API, service.APIVersion)
	}
	caps := strings.Join(v.Capabilities, ",")
	if !strings.Contains(caps, "shards") || !strings.Contains(caps, "coordinate") {
		t.Errorf("capabilities %v missing shards/coordinate", v.Capabilities)
	}
}

// TestQueueFull: a daemon with MaxQueue=1 accepts one queued job beyond
// the running one and rejects the next with ErrQueueFull over the wire.
func TestQueueFull(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{JobSlots: 1, MaxQueue: 1})
	ctx := context.Background()

	long := service.JobSpec{App: "LULESH", Scale: "test", Runs: 4000, Seed: 3}
	first, err := d.c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job occupies the slot so the next sits queued.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := d.c.Job(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second, err := d.c.Submit(ctx, long)
	if err != nil {
		t.Fatalf("second submit (fills the queue): %v", err)
	}
	if _, err := d.c.Submit(ctx, long); !errors.Is(err, service.ErrQueueFull) {
		t.Errorf("third submit = %v, want errors.Is ErrQueueFull", err)
	}
	for _, id := range []string{first.ID, second.ID} {
		if _, err := d.c.Cancel(ctx, id); err != nil {
			t.Errorf("cancel %s: %v", id, err)
		}
	}
	waitDone(t, d.c, first.ID)
	waitDone(t, d.c, second.ID)
}

// TestWorkerRegistration exercises the runtime worker API: register,
// list, deregister.
func TestWorkerRegistration(t *testing.T) {
	d := startDaemon(t, t.TempDir(), service.Config{})
	ctx := context.Background()

	info, err := d.c.RegisterWorker(ctx, "wk-a", "127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "wk-a" || info.URL != "http://127.0.0.1:9999" || !info.Alive {
		t.Errorf("registered worker = %+v", info)
	}
	list, err := d.c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "wk-a" {
		t.Errorf("workers = %+v, want [wk-a]", list)
	}
	if err := d.c.RemoveWorker(ctx, "wk-a"); err != nil {
		t.Fatal(err)
	}
	if list, _ = d.c.Workers(ctx); len(list) != 0 {
		t.Errorf("workers after remove = %+v, want empty", list)
	}
}
