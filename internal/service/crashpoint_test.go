package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/durable"
	"repro/internal/harness"
	"repro/internal/service"
)

// Crash points, enumerated: the source paper's method — a fault at every
// point, each outcome classified — turned on our own persistence. A run is
// recorded once through durable's write seam; then, for every point a
// kill could land on, the directory is rebuilt as that kill would have
// left it, the program restarts over it, and the restart must produce the
// recorded run's result bytes. Every file the harness and the service
// write goes through durable (CI's "One durable write path" guard), so
// the recorded ops are every write there is. The rebuilt state is a pure
// function of the recording: no timers decide where a kill lands.

// fileOp is one write the recording saw: an append to a log, or a Replace.
type fileOp struct {
	Path    string
	Data    []byte
	Replace bool
}

// crashPoint is where a kill lands: after the first n recorded ops
// reached their files, and, when torn > 0, after the first torn bytes of
// op n's append, or, with inReplace, while op n's Replace had its temp
// file half written.
type crashPoint struct {
	n         int
	torn      int
	inReplace bool
}

func (p crashPoint) String() string {
	switch {
	case p.torn > 0:
		return fmt.Sprintf("op %d torn at byte %d", p.n, p.torn)
	case p.inReplace:
		return fmt.Sprintf("inside replace op %d", p.n)
	}
	return fmt.Sprintf("after %d ops", p.n)
}

// recordOps runs fn and returns the writes it made under dir, in order.
func recordOps(dir string, fn func()) []fileOp {
	var mu sync.Mutex
	var ops []fileOp
	observe := func(path string, data []byte, replace bool) {
		if strings.HasPrefix(path, dir+string(os.PathSeparator)) {
			mu.Lock()
			ops = append(ops, fileOp{path, data, replace})
			mu.Unlock()
		}
	}
	durable.Observer.Store(&observe)
	fn()
	durable.Observer.Store(nil)
	mu.Lock()
	defer mu.Unlock()
	return ops
}

// crashPoints enumerates the kills of one recording: one at every write
// boundary, one inside every Replace, and, for the append op tornOp (none
// when negative), one at each byte offset torn returns for its length.
func crashPoints(ops []fileOp, tornOp int, torn func(n int) []int) []crashPoint {
	var pts []crashPoint
	for n := 0; n <= len(ops); n++ {
		pts = append(pts, crashPoint{n: n})
		if n < len(ops) && ops[n].Replace {
			pts = append(pts, crashPoint{n: n, inReplace: true})
		}
	}
	if tornOp < 0 {
		return pts
	}
	for _, b := range torn(len(ops[tornOp].Data)) {
		pts = append(pts, crashPoint{n: tornOp, torn: b})
	}
	return pts
}

// lastAppend is the index of the last op that appends to a log at path.
func lastAppend(t *testing.T, ops []fileOp, path string) int {
	t.Helper()
	for i := len(ops) - 1; i >= 0; i-- {
		if !ops[i].Replace && ops[i].Path == path {
			return i
		}
	}
	t.Fatalf("the recording appended nothing to %s", path)
	return -1
}

// rebuild empties dir and writes into it what a kill at p left.
func rebuild(t *testing.T, dir string, ops []fileOp, p crashPoint) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(path string, data []byte, replace bool) {
		flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
		if replace {
			flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err == nil {
			_, err = f.Write(data)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range ops[:p.n] {
		write(op.Path, op.Data, op.Replace)
	}
	switch op := ops[min(p.n, len(ops)-1)]; {
	case p.inReplace:
		write(op.Path+durable.TempSuffix, op.Data[:len(op.Data)/2], true)
	case p.torn > 0:
		write(op.Path, op.Data[:p.torn], false)
	}
}

// checkLogsWhole requires every log the recording appended to be whole
// lines of JSON after a restart ran to completion: a torn tail the kill
// left was cut off before the restart appended behind it.
func checkLogsWhole(t *testing.T, ops []fileOp, p crashPoint) {
	t.Helper()
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Replace || seen[op.Path] {
			continue
		}
		seen[op.Path] = true
		data, err := os.ReadFile(op.Path)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		keep, err := durable.ScanLog(bytes.NewReader(data), json.Valid)
		if err != nil || keep != int64(len(data)) {
			t.Fatalf("%v: %s holds %d bytes, of which whole JSON lines end at %d (err %v)",
				p, filepath.Base(op.Path), len(data), keep, err)
		}
	}
}

// checkSameResult requires the restart's result bytes to equal the
// uninterrupted run's.
func checkSameResult(t *testing.T, p crashPoint, want, got []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%v: the restart's %d result bytes differ from the uninterrupted run's %d", p, len(got), len(want))
	}
}

// everyOffset tears a line at every byte; sampled tears it at its first,
// middle and last byte.
func everyOffset(n int) []int {
	var out []int
	for b := 1; b < n; b++ {
		out = append(out, b)
	}
	return out
}

func sampled(n int) []int { return []int{1, n / 2, n - 1} }

// TestCrashPointsLocal: a local campaign with a checkpoint journal, then
// SaveResults, killed at every write. The restart resumes the journal and
// must write the same results file.
func TestCrashPointsLocal(t *testing.T) {
	app := apps.NewHydro()
	for _, tc := range []struct {
		name     string
		sampling harness.Sampling
		torn     func(int) []int
	}{
		{"fixed", harness.Sampling{Runs: 12, Seed: 29}, everyOffset},
		{"adaptive", harness.Sampling{Runs: 40, Seed: 7, TargetCI: 0.3}, sampled},
		{"sites", harness.Sampling{Runs: 8, Seed: 7, Sites: true, Strata: 4}, sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "ck.jsonl")
			results := filepath.Join(dir, "results.json")
			run := func() ([]byte, error) {
				cfg := harness.CampaignConfig{
					App: app, Params: app.TestParams(), Sampling: tc.sampling,
					Execution:   harness.Execution{SampleEvery: 4096, Workers: 1, Snapshots: 64},
					Persistence: harness.Persistence{Checkpoint: journal, Resume: true},
				}
				res, err := harness.RunCampaign(cfg)
				if err != nil {
					return nil, err
				}
				if err := harness.SaveResults(results, []*harness.CampaignResult{res}); err != nil {
					return nil, err
				}
				return os.ReadFile(results)
			}

			var want []byte
			ops := recordOps(dir, func() {
				var err error
				if want, err = run(); err != nil {
					t.Fatal(err)
				}
			})
			pts := crashPoints(ops, lastAppend(t, ops, journal), tc.torn)
			for _, p := range pts {
				rebuild(t, dir, ops, p)
				got, err := run()
				if err != nil {
					t.Fatalf("%v: restart failed: %v", p, err)
				}
				checkSameResult(t, p, want, got)
				checkLogsWhole(t, ops, p)
			}
			t.Logf("%d ops, %d crash points", len(ops), len(pts))
		})
	}
}

// TestCrashPointsCoordinated: a 2-shard coordinated job whose coordinator
// is killed at every write — status records, its journal, result — and at
// the first, middle and last byte of its last status record, the done
// one, and of its last journal record. The workers live on; the restarted
// coordinator must settle the job with the recorded result bytes. A kill
// before the job's first status record reached disk lost the submission,
// so the client submits it again, as it would after a failed submit. The
// restart reports what it did not execute: its terminal status, and the
// progress it carries, count as resumed exactly the records journaled
// before the kill, and as done every run. A kill after the done status
// reached disk leaves nothing to restart, and the recorded status stands;
// a torn done status is no status, and the restart settles the job again.
func TestCrashPointsCoordinated(t *testing.T) {
	spec := service.JobSpec{App: "LULESH", Scale: "test", Runs: 10, Seed: 31, SampleEvery: 64, Shards: 2}
	_, urls := startWorkerFleet(t, 2)
	cfg := service.Config{ProgressEvery: 10 * time.Millisecond, Heartbeat: 100 * time.Millisecond, Peers: urls}
	dir := t.TempDir()
	var final service.JobStatus
	run := func() []byte {
		t.Helper()
		d := startDaemon(t, dir, cfg)
		defer d.stop(t)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		id := "1"
		if _, ok := statusOnDisk(t, dir, id); !ok {
			st, err := d.c.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			id = st.ID
		}
		var err error
		final, err = d.c.Watch(ctx, id, func(service.Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if final.State != service.StateDone {
			t.Fatalf("job %s settled as %s: %s", id, final.State, final.Error)
		}
		data, err := os.ReadFile(filepath.Join(dir, "job-"+id+".result.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var want []byte
	ops := recordOps(dir, func() { want = run() })
	recorded := final.Resumed
	journal := filepath.Join(dir, "job-1.ckpt.jsonl")
	pts := crashPoints(ops, lastAppend(t, ops, filepath.Join(dir, "status.jsonl")), sampled)
	last := lastAppend(t, ops, journal)
	for _, b := range sampled(len(ops[last].Data)) {
		pts = append(pts, crashPoint{n: last, torn: b})
	}
	for _, p := range pts {
		rebuild(t, dir, ops, p)
		resumed := recorded
		if st, ok := statusOnDisk(t, dir, "1"); !ok || !st.State.Terminal() {
			resumed = journaled(t, journal)
		}
		checkSameResult(t, p, want, run())
		checkLogsWhole(t, ops, p)
		if pr := final.Progress; final.Resumed != resumed || pr == nil || pr.Resumed != resumed || pr.Done != spec.Runs {
			t.Fatalf("%v: the restart settled with resumed %d and progress %+v, want %d resumed of %d done",
				p, final.Resumed, pr, resumed, spec.Runs)
		}
	}
	t.Logf("%d ops, %d crash points", len(ops), len(pts))
}

// statusOnDisk returns job id's status as the job store in dir holds it,
// and whether it holds one.
func statusOnDisk(t *testing.T, dir, id string) (service.JobStatus, bool) {
	t.Helper()
	store, err := service.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range jobs {
		if st.ID == id {
			return st, true
		}
	}
	return service.JobStatus{}, false
}

// journaled counts the experiment records of the checkpoint journal at
// path that a resume replays: its whole lines after the header, none when
// there is no journal.
func journaled(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := durable.ScanLog(bytes.NewReader(data), func(line []byte) bool {
		var rec struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(line, &rec) != nil {
			return false
		}
		if rec.Kind == "exp" {
			n++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n
}
