package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/archive"
	"repro/internal/service"
)

// startHeld starts a daemon over dir whose scheduler dispatches nothing:
// the jobs it recovers stay queued, as listed, until the test ends.
func startHeld(t *testing.T, dir string, cfg service.Config) *testDaemon {
	t.Helper()
	cfg.Dir = dir
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.HoldDispatch()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	c, err := service.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := &testDaemon{srv: srv, http: hs, c: c}
	t.Cleanup(func() { d.stop(t) })
	return d
}

// jobsOf lists d's jobs.
func jobsOf(t *testing.T, d *testDaemon) []service.JobStatus {
	t.Helper()
	jobs, err := d.c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// statusLines returns the records of the status log in dir, requiring it
// to be whole lines of JSON.
func statusLines(t *testing.T, dir string) []service.JobStatus {
	t.Helper()
	data := mustRead(t, filepath.Join(dir, "status.jsonl"))
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("the status log ends in a torn line: %.200q", data)
	}
	var out []service.JobStatus
	for _, line := range bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal(line, &st); err != nil {
			t.Fatalf("status log line %.200q: %v", line, err)
		}
		out = append(out, st)
	}
	return out
}

// nextID is the ID the store in dir gives its next job.
func nextID(t *testing.T, dir string) string {
	t.Helper()
	store, err := service.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewID()
}

// TestStatusLogRestarts: the status log holds every status a job went
// through, and a restart lists each job as its last record says — a done
// job as done, not as the queued or running it first was — while a torn
// record at the log's end is no job and takes no ID. The first restart
// compacts the log to one line per job, in ID order, the queued job
// included; later restarts with no new job rewrite nothing and leave it so.
func TestStatusLogRestarts(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{ArchiveDir: t.TempDir()}
	d := startDaemon(t, dir, cfg)
	settle(t, d, hitSpec, false)
	settle(t, d, hitSpec, true)
	d.srv.HoldDispatch()
	queued, err := d.c.Submit(context.Background(), service.JobSpec{App: "MCB", Scale: "test", Runs: 4, Seed: 1, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := jobsOf(t, d)
	d.stop(t)

	lines := statusLines(t, dir)
	var ids []string
	for _, st := range lines {
		ids = append(ids, st.ID)
	}
	if !reflect.DeepEqual(ids, []string{"1", "1", "1", "2", queued.ID}) {
		t.Fatalf("the status log holds records of jobs %v, want 1 three times (queued, running, done), the hit 2, and the queued %s",
			ids, queued.ID)
	}
	// A kill while the record of a fourth job was being appended.
	log := filepath.Join(dir, "status.jsonl")
	data := mustRead(t, log)
	torn := bytes.Replace(data[bytes.LastIndexByte(data[:len(data)-1], '\n')+1:], []byte(`"id":"`+queued.ID+`"`), []byte(`"id":"9"`), 1)
	if err := os.WriteFile(log, append(data, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	for restart := 1; restart <= 3; restart++ {
		var got []service.JobStatus
		ops := recordOps(dir, func() {
			d := startHeld(t, dir, cfg)
			got = jobsOf(t, d)
			d.stop(t)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restart %d lists\n%+v\nwant\n%+v", restart, got, want)
		}
		lines := statusLines(t, dir)
		if len(lines) != len(want) {
			t.Errorf("after restart %d the status log holds %d records, want one per job (%d)", restart, len(lines), len(want))
		}
		for i := range min(len(lines), len(want)) {
			if lines[i].ID != want[i].ID || lines[i].State != want[i].State {
				t.Errorf("after restart %d record %d is job %s %s, want job %s %s",
					restart, i, lines[i].ID, lines[i].State, want[i].ID, want[i].State)
			}
		}
		if restart == 1 && (len(ops) != 1 || !ops[0].Replace) {
			t.Errorf("the first restart made %d writes, want the one compaction", len(ops))
		}
		if restart > 1 && len(ops) != 0 {
			t.Errorf("restart %d of a compact store made %d writes, want none", restart, len(ops))
		}
		if id := nextID(t, dir); id != strconv.Itoa(len(want)+1) {
			t.Errorf("after restart %d the next job ID is %s, want %d", restart, id, len(want)+1)
		}
	}
}

// legacyStatus matches the older layout's status files and their temp files.
var legacyStatus = regexp.MustCompile(`^job-[0-9]+\.json(\.tmp)?$`)

// legacySpec is the campaign of the job that wrote testdata/legacy-archive.
var legacySpec = service.JobSpec{App: "LULESH", Scale: "test", Runs: 6, Seed: 3, SampleEvery: 64}

// copyTree copies the fixture directory src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLegacyStoreMigrates: testdata/legacy-store is a job store an older
// build wrote, one job-<id>.json status file per job — done, a cache hit,
// cancelled, and two queued, one with a started journal — plus the stray
// temp file of a status write that never landed. Restarted over it, a
// daemon lists the same jobs and gives the next ID after them, not after
// the stray file's; it folds the status files into the status log and
// removes them and the stray, keeps every journal and result, and serves
// the done job's result. A second restart lists the same.
func TestLegacyStoreMigrates(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-store"), dir)
	var want []service.JobStatus
	for id := 1; id <= 5; id++ {
		var st service.JobStatus
		if err := json.Unmarshal(mustRead(t, filepath.Join(dir, "job-"+strconv.Itoa(id)+".json")), &st); err != nil {
			t.Fatal(err)
		}
		want = append(want, st)
	}
	if id := nextID(t, dir); id != "6" {
		t.Errorf("the legacy store's next job ID is %s, want 6", id)
	}
	for restart := 1; restart <= 2; restart++ {
		d := startHeld(t, dir, service.Config{})
		got := jobsOf(t, d)
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("restart %d lists\n%s\nwant\n%s", restart, gotJSON, wantJSON)
		}
		if res := rawResult(t, d.http.URL, "1"); !bytes.Equal(res, mustRead(t, filepath.Join("testdata", "legacy-store", "job-1.result.json"))) {
			t.Errorf("restart %d serves job 1's result as other bytes than stored", restart)
		}
		d.stop(t)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if legacyStatus.MatchString(e.Name()) {
				t.Errorf("restart %d left the older layout's status file %s", restart, e.Name())
			}
		}
		if lines := statusLines(t, dir); len(lines) != len(want) {
			t.Errorf("restart %d folded %d records into the status log, want %d", restart, len(lines), len(want))
		}
		for _, name := range []string{"job-1.ckpt.jsonl", "job-1.result.json", "job-3.ckpt.jsonl"} {
			if !bytes.Equal(mustRead(t, filepath.Join(dir, name)), mustRead(t, filepath.Join("testdata", "legacy-store", name))) {
				t.Errorf("restart %d changed %s", restart, name)
			}
		}
		if id := nextID(t, dir); id != "6" {
			t.Errorf("after restart %d the next job ID is %s, want 6", restart, id)
		}
	}
}

// TestLegacyArchiveEntryHits: testdata/legacy-archive holds an entry an
// older build archived, whose manifest carries FNV-64a sums. It is served
// as a hit, verified against those sums, with the archived result and
// journal bytes, and left as it is. With one byte of either file flipped
// it is corrupt: the submission runs fresh, and the healed entry holds
// the same result bytes under CRC sums.
func TestLegacyArchiveEntryHits(t *testing.T) {
	const fp = "5a2e070f9ac0c945"
	fixture := filepath.Join("testdata", "legacy-archive", "entries", fp)
	for name, flip := range map[string]string{"intact": "", "result-flipped": archive.ResultFile, "journal-flipped": archive.JournalFile} {
		t.Run(name, func(t *testing.T) {
			arch := t.TempDir()
			copyTree(t, filepath.Join("testdata", "legacy-archive"), arch)
			entry := filepath.Join(arch, "entries", fp)
			manifest := mustRead(t, filepath.Join(entry, "manifest.json"))
			if !bytes.Contains(manifest, []byte(`"sum"`)) || bytes.Contains(manifest, []byte(`"crc"`)) {
				t.Fatal("the fixture's manifest does not carry the older sums alone")
			}
			if flip != "" {
				data := mustRead(t, filepath.Join(entry, flip))
				data[len(data)/2] ^= 0x01
				if err := os.WriteFile(filepath.Join(entry, flip), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			a, err := archive.Open(arch)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{archive.ResultFile, archive.JournalFile} {
				got, err := a.File(fp, name)
				switch {
				case name == flip && !errors.Is(err, archive.ErrCorrupt):
					t.Errorf("%s with one byte flipped reads as %v, want ErrCorrupt", name, err)
				case name != flip && (err != nil || !bytes.Equal(got, mustRead(t, filepath.Join(fixture, name)))):
					t.Errorf("%s reads as %d bytes (%v), want the archived bytes", name, len(got), err)
				}
			}

			d := startDaemon(t, t.TempDir(), service.Config{ArchiveDir: arch})
			st := settle(t, d, legacySpec, flip == "")
			if st.Fingerprint != fp {
				t.Fatalf("the job's key is %s, want the fixture's %s", st.Fingerprint, fp)
			}
			if got := rawResult(t, d.http.URL, st.ID); !bytes.Equal(got, mustRead(t, filepath.Join(fixture, archive.ResultFile))) {
				t.Errorf("the job serves a result of %d bytes other than the archived one", len(got))
			}
			if n := experimentsIn(streamOf(t, d, st.ID)); n != legacySpec.Runs {
				t.Errorf("the job's stream replays %d experiments, want %d", n, legacySpec.Runs)
			}
			after := mustRead(t, filepath.Join(entry, "manifest.json"))
			if flip == "" && !bytes.Equal(after, manifest) {
				t.Error("serving the legacy entry rewrote its manifest")
			}
			if flip != "" && (bytes.Contains(after, []byte(`"sum"`)) || !bytes.Contains(after, []byte(`"crc"`))) {
				t.Errorf("the healed entry's manifest carries no CRC sums:\n%s", after)
			}
		})
	}
}
