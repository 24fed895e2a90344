package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

// executedOn reads how many experiments d executed or absorbed from its
// shards' timings: the count of its execute-phase histogram.
func executedOn(t *testing.T, d *testDaemon) int {
	t.Helper()
	v, ok := promValue(t, fetchProm(t, d.http.URL), `faultpropd_experiment_phase_seconds_count{phase="execute"}`)
	if !ok {
		t.Fatal("/metrics has no execute-phase count")
	}
	return int(v)
}

// TestArchiveSeedsLongerCampaign: after an N-run campaign is archived, a
// 2N-run campaign of its family replays the N archived records and
// executes only the other N, locally and as a two-shard coordinated job.
// Its result bytes equal those of a fresh 2N-run job on a daemon with an
// empty archive.
func TestArchiveSeedsLongerCampaign(t *testing.T) {
	const n = 12
	for _, shards := range []int{0, 2} {
		t.Run(map[int]string{0: "local", 2: "sharded"}[shards], func(t *testing.T) {
			_, urls := startWorkerFleet(t, 2)
			cfg := service.Config{Heartbeat: 100 * time.Millisecond, Peers: urls}
			fresh := cfg
			fresh.ArchiveDir = t.TempDir()
			cfg.ArchiveDir = t.TempDir()
			d := startDaemon(t, t.TempDir(), cfg)

			short := service.JobSpec{App: "miniFE", Scale: "test", Runs: n, Seed: 61, SampleEvery: 64}
			settle(t, d, short, false)
			long := short
			long.Runs, long.Shards = 2*n, shards
			before := executedOn(t, d)
			st := settle(t, d, long, false)
			if st.Resumed != n {
				t.Errorf("the %d-run job resumed %d experiments, want %d", 2*n, st.Resumed, n)
			}
			if got := executedOn(t, d) - before; got != n {
				t.Errorf("the %d-run job executed %d experiments, want %d", 2*n, got, n)
			}
			body := fetchProm(t, d.http.URL)
			for name, want := range map[string]float64{"faultpropd_seeded_jobs_total": 1, "faultpropd_seeded_records_total": n} {
				if v, _ := promValue(t, body, name); v != want {
					t.Errorf("%s = %v, want %v", name, v, want)
				}
			}

			ref := startDaemon(t, t.TempDir(), fresh)
			want := settle(t, ref, long, false)
			if want.Resumed != 0 {
				t.Fatalf("the reference job resumed %d experiments on an empty archive", want.Resumed)
			}
			if got, want := rawResult(t, d.http.URL, st.ID), rawResult(t, ref.http.URL, want.ID); !bytes.Equal(got, want) {
				t.Errorf("the seeded job's result (%d bytes) differs from a fresh job's (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestSeededJobWritesOnce: a seeded whole job writes its journal once,
// the archived shorter campaign's records under its own header, and its
// resume only appends to it. Its file writes are exactly two replaces —
// that journal and its result — and appends: its status records and the
// records of the experiments it executes.
func TestSeededJobWritesOnce(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	d := startDaemon(t, dir, service.Config{ArchiveDir: t.TempDir()})
	short := service.JobSpec{App: "miniFE", Scale: "test", Runs: n, Seed: 67, SampleEvery: 64}
	settle(t, d, short, false)
	long := short
	long.Runs = 2 * n
	var st service.JobStatus
	ops := recordOps(dir, func() { st = settle(t, d, long, false) })
	if st.Resumed != n {
		t.Fatalf("the %d-run job resumed %d experiments, want %d", 2*n, st.Resumed, n)
	}
	journal := filepath.Join(dir, "job-"+st.ID+".ckpt.jsonl")
	var replaced []string
	var seeded []byte
	appends := map[string]int{}
	for _, op := range ops {
		if op.Replace {
			replaced = append(replaced, filepath.Base(op.Path))
		} else {
			appends[filepath.Base(op.Path)]++
		}
		if op.Replace && op.Path == journal {
			seeded = op.Data
		}
	}
	if want := []string{filepath.Base(journal), "job-" + st.ID + ".result.json"}; !reflect.DeepEqual(replaced, want) {
		t.Errorf("the seeded job replaced %v, want %v", replaced, want)
	}
	if want := map[string]int{"status.jsonl": 3, filepath.Base(journal): n}; !reflect.DeepEqual(appends, want) {
		t.Errorf("the seeded job appended %v, want %v", appends, want)
	}
	if len(seeded) == 0 || !bytes.HasPrefix(mustRead(t, journal), seeded) {
		t.Fatal("the seeded journal is not the start of the job's journal")
	}
	header, _, _ := bytes.Cut(seeded, []byte("\n"))
	var hdr struct {
		Fingerprint string `json:"fingerprint"`
		Runs        int    `json:"runs"`
		Trace       string `json:"trace"`
	}
	if err := json.Unmarshal(header, &hdr); err != nil || hdr.Fingerprint != st.Fingerprint || hdr.Runs != 2*n || hdr.Trace != st.Trace {
		t.Errorf("the seeded journal is headed %s (%v), want the %d-run job's own header", header, err, 2*n)
	}
}

// TestCoordinatedFamilySource: a two-shard job's journal is archived like
// a local job's, so it is a family source too. A two-shard 2N-run job
// after a two-shard N-run job of its family resumes the N archived records
// and executes only the other N on its workers, its seed counted in the
// seeding metrics, and its result bytes are the local 2N-run campaign's.
func TestCoordinatedFamilySource(t *testing.T) {
	const n = 12
	_, urls := startWorkerFleet(t, 2)
	d := startDaemon(t, t.TempDir(), service.Config{Heartbeat: 100 * time.Millisecond, Peers: urls, ArchiveDir: t.TempDir()})
	short := service.JobSpec{App: "miniFE", Scale: "test", Runs: n, Seed: 61, SampleEvery: 64, Shards: 2}
	if st := settle(t, d, short, false); st.Resumed != 0 {
		t.Fatalf("the first job of the family resumed %d experiments", st.Resumed)
	}
	long := short
	long.Runs = 2 * n
	before := executedOn(t, d)
	st := settle(t, d, long, false)
	if st.Resumed != n {
		t.Errorf("the %d-run job resumed %d experiments, want %d", 2*n, st.Resumed, n)
	}
	if got := executedOn(t, d) - before; got != n {
		t.Errorf("the %d-run job executed %d experiments on its workers, want %d", 2*n, got, n)
	}
	body := fetchProm(t, d.http.URL)
	for name, want := range map[string]float64{"faultpropd_seeded_jobs_total": 1, "faultpropd_seeded_records_total": n} {
		if v, _ := promValue(t, body, name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	want, _ := json.Marshal(localReference(t, long))
	if got := rawResult(t, d.http.URL, st.ID); !bytes.Equal(got, want) {
		t.Errorf("the seeded coordinated job's result (%d bytes) differs from the local run's (%d bytes)", len(got), len(want))
	}
}

// TestCoordinatorRestartKeepsParkedSeed: a coordinated job parks its seed
// in its own journal, written before it dispatches a shard. Restarted mid-job
// after the seed's source entry was removed from the archive, the
// coordinator still resumes the seed from its journal, runs only the
// rest, and yields the fresh run's bytes; it seeds nothing from the
// archive again.
func TestCoordinatorRestartKeepsParkedSeed(t *testing.T) {
	const n = 10
	workers, urls := startWorkerFleet(t, 2)
	dir, arch := t.TempDir(), t.TempDir()
	cfg := service.Config{Heartbeat: 100 * time.Millisecond, Peers: urls, ArchiveDir: arch}
	coord := startDaemon(t, dir, cfg)

	short := service.JobSpec{App: "LULESH", Scale: "test", Runs: n, Seed: 73, SampleEvery: 64}
	source := settle(t, coord, short, false)
	long := short
	long.Runs, long.Shards = 2*n, 2
	local := localReference(t, long)

	var release []func()
	for _, w := range workers {
		release = append(release, w.srv.HoldDispatch())
	}
	st, err := coord.c.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	// The shards are dispatched once the seeded journal is resumed: wait
	// for them on the held workers.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		jobs := 0
		for _, w := range workers {
			list, err := w.c.Jobs(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			jobs += len(list)
		}
		if jobs == long.Shards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the coordinator dispatched no shard")
		}
	}
	coord.stop(t)
	if err := os.RemoveAll(filepath.Join(arch, "entries", source.Fingerprint)); err != nil {
		t.Fatal(err)
	}
	for _, r := range release {
		r()
	}

	restarted := startDaemon(t, dir, cfg)
	final := waitDone(t, restarted.c, st.ID)
	if final.State != service.StateDone {
		t.Fatalf("restarted job settled as %s: %s", final.State, final.Error)
	}
	if final.Resumed != n {
		t.Errorf("the restarted job resumed %d experiments, want the seed's %d", final.Resumed, n)
	}
	if v, _ := promValue(t, fetchProm(t, restarted.http.URL), "faultpropd_seeded_jobs_total"); v != 0 {
		t.Errorf("the restarted coordinator seeded %v jobs from the archive, want 0", v)
	}
	merged, err := restarted.c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCampaign(t, "restarted seeded job", local, merged)
	if want, _ := json.Marshal(local); !bytes.Equal(rawResult(t, restarted.http.URL, st.ID), want) {
		t.Error("the restarted seeded job's result is not byte-identical to the local run")
	}
}

// TestCoordinatedWatchReplaysJournal: a watcher that attaches to a settled
// two-shard job replays its journal — every experiment exactly once, as
// for a local job — and so does a watcher of its cache hit.
func TestCoordinatedWatchReplaysJournal(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 20, Seed: 17, SampleEvery: 64, Shards: 2}
	_, urls := startWorkerFleet(t, 2)
	d := startDaemon(t, t.TempDir(), service.Config{Heartbeat: 100 * time.Millisecond, Peers: urls, ArchiveDir: t.TempDir()})
	for _, hit := range []bool{false, true} {
		st := settle(t, d, spec, hit)
		seen := map[int]int{}
		for _, ev := range streamOf(t, d, st.ID) {
			if ev.Experiment != nil {
				seen[ev.Experiment.ID]++
			}
		}
		for id := 0; id < spec.Runs; id++ {
			if seen[id] != 1 {
				t.Errorf("cacheHit=%v: experiment %d streamed %d times, want once", hit, id, seen[id])
			}
		}
		if len(seen) != spec.Runs {
			t.Errorf("cacheHit=%v: %d experiments streamed, want %d", hit, len(seen), spec.Runs)
		}
	}
}
