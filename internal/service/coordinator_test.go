package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
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

// TestCoordinatorRestartResumesShards drains the coordinator mid-campaign
// and restarts it over the same store: journaled shards must load from
// disk (not re-run) and only the missing shards execute. The adaptive
// campaign is drained inside its second planner round, so the restarted
// planner has to re-derive round one from journaled partials alone and
// continue with the partly journaled round two.
func TestCoordinatorRestartResumesShards(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      service.JobSpec
		journaled int // shards in the journal before the drain
	}{
		{"fixed", service.JobSpec{App: "LULESH", Scale: "test", Runs: 64, Seed: 440, SampleEvery: 64, Shards: 8}, 1},
		{"adaptive", service.JobSpec{App: "LULESH", Scale: "test", Runs: 1600, Seed: 440, SampleEvery: 64, Shards: 2,
			Sampling: &service.SamplingSpec{TargetCI: 0.04, Strata: 2}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			local := localReference(t, spec)

			_, urls := startWorkerFleet(t, 2)
			dir := t.TempDir()
			cfg := service.Config{
				ProgressEvery: 10 * time.Millisecond,
				Heartbeat:     100 * time.Millisecond,
				Peers:         urls,
			}
			coord := startDaemon(t, dir, cfg)

			st, err := coord.c.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			// Wait for enough shards to be parked, then drain.
			parked := func() int {
				m, _ := filepath.Glob(filepath.Join(dir, "job-"+st.ID+".shard-*.partial.json"))
				return len(m)
			}
			deadline := time.Now().Add(time.Minute)
			for {
				if parked() >= tc.journaled {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("too few shards completed before the drain")
				}
				time.Sleep(time.Millisecond)
			}
			coord.stop(t)

			journaled := parked()

			restarted := startDaemon(t, dir, cfg)
			final := waitDone(t, restarted.c, st.ID)
			if final.State != service.StateDone {
				t.Fatalf("restarted job settled as %s: %s", final.State, final.Error)
			}
			if final.Resumed == 0 {
				t.Errorf("restarted coordinator reports 0 resumed runs; want the %d journaled shards' runs to replay from disk", journaled)
			}
			merged, err := restarted.c.Result(context.Background(), st.ID)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCampaign(t, "restarted", local, merged)
			t.Logf("%d shards journaled before the drain, %d after the restart", journaled, parked())
			lj, _ := json.Marshal(local)
			mj, _ := json.Marshal(merged)
			if string(lj) != string(mj) {
				t.Errorf("restarted result JSON is not byte-identical to the local run (%d vs %d bytes)", len(lj), len(mj))
			}
		})
	}
}

// TestCoordinatorIgnoresForeignParkedPartial: a parked shard partial is
// the shard's completion record only when it carries the campaign's
// fingerprint. One left by another campaign at the same path is re-run,
// not merged.
func TestCoordinatorIgnoresForeignParkedPartial(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 12, Seed: 31, SampleEvery: 64, Shards: 2}
	local := localReference(t, spec)
	other := spec
	other.Seed = 32
	cfg, err := other.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := harness.PlanShards(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := harness.RunShard(cfg, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data, err := json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1.shard-0.partial.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, urls := startWorkerFleet(t, 1)
	coord := startDaemon(t, dir, service.Config{ProgressEvery: 10 * time.Millisecond, Peers: urls})
	st, err := coord.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "1" {
		t.Fatalf("job ID %s, want 1", st.ID)
	}
	final := waitDone(t, coord.c, st.ID)
	if final.State != service.StateDone || final.Resumed != 0 {
		t.Fatalf("job settled as %s with %d resumed runs (%s); want done with none", final.State, final.Resumed, final.Error)
	}
	merged, err := coord.c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "foreign partial parked", local, merged)
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

	st, err := d.c.Submit(ctx, service.JobSpec{App: "LULESH", Scale: "test", Runs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Partial(ctx, st.ID); !errors.Is(err, service.ErrNoPartial) {
		t.Errorf("Partial(unsharded job) = %v, want errors.Is ErrNoPartial", err)
	}
	waitDone(t, d.c, st.ID)

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
