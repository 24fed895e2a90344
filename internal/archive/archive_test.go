package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testMeta(fp string) Meta {
	return Meta{
		Fingerprint: fp,
		App:         "LULESH",
		Runs:        14,
		Seed:        5,
		Archived:    time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		SourceJob:   "job-1",
		Outcomes:    map[string]int{"V": 3, "C": 11},
		FPS:         1.25,
	}
}

func mustOpen(t *testing.T) *Archive {
	t.Helper()
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return a
}

func TestPutGetRoundTrip(t *testing.T) {
	a := mustOpen(t)
	result := []byte(`{"app":"LULESH","runs":14}`)
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(jpath, []byte("line1\nline2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(testMeta("cafe0123"), result, jpath); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rec, err := a.Get("cafe0123")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(rec.Result, result) {
		t.Fatalf("result bytes differ: got %q want %q", rec.Result, result)
	}
	if rec.Meta.App != "LULESH" || rec.Meta.Runs != 14 || rec.Meta.FPS != 1.25 {
		t.Fatalf("meta mismatch: %+v", rec.Meta)
	}
	if string(rec.Journal) != "line1\nline2\n" {
		t.Fatalf("journal content: %q", rec.Journal)
	}

	// The per-file reads return the same verified bytes as Get.
	if got, err := a.File("cafe0123", ResultFile); err != nil || !bytes.Equal(got, result) {
		t.Fatalf("File(result): %q err %v", got, err)
	}
	if got, err := a.File("cafe0123", JournalFile); err != nil || !bytes.Equal(got, rec.Journal) {
		t.Fatalf("File(journal): %q err %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	a := mustOpen(t)
	if _, err := a.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPutWithoutJournal(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("ab12"), []byte("{}"), ""); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rec, err := a.Get("ab12")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rec.Journal != nil {
		t.Fatalf("expected no journal, got %q", rec.Journal)
	}
	if got, err := a.File("ab12", JournalFile); got != nil || err != nil {
		t.Fatalf("Journal of a journal-less entry: %q err %v", got, err)
	}
	// A journal path that does not exist archives cleanly with no journal.
	if err := a.Put(testMeta("cd34"), []byte("{}"), filepath.Join(t.TempDir(), "nope.jsonl")); err != nil {
		t.Fatalf("Put with missing journal path: %v", err)
	}
	if rec, err := a.Get("cd34"); err != nil || rec.Journal != nil {
		t.Fatalf("Get: journal=%q err=%v", rec.Journal, err)
	}
}

func TestTruncatedResultIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("feed01"), []byte(`{"app":"LULESH","tally":[1,2,3,4,5]}`), ""); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(a.Dir(), "entries", "feed01", "result.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("feed01"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated result: want ErrCorrupt, got %v", err)
	}
	// Eviction heals the slot for a later Put.
	if err := a.Remove("feed01"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := a.Get("feed01"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after Remove: want ErrNotFound, got %v", err)
	}
	if err := a.Put(testMeta("feed01"), []byte("{}"), ""); err != nil {
		t.Fatalf("re-Put after eviction: %v", err)
	}
	if _, err := a.Get("feed01"); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
}

func TestModifiedResultIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("beef02"), []byte(`{"runs":14}`), ""); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(a.Dir(), "entries", "beef02", "result.json")
	// Same length, different bytes: size check alone would miss this.
	if err := os.WriteFile(p, []byte(`{"runs":41}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("beef02"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("modified result: want ErrCorrupt, got %v", err)
	}
}

func TestTruncatedJournalIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(jpath, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(testMeta("0a0b"), []byte("{}"), jpath); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(a.Dir(), "entries", "0a0b", "journal.jsonl")
	if err := os.WriteFile(p, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("0a0b"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated journal: want ErrCorrupt, got %v", err)
	}
}

func TestFingerprintMismatchIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("1111"), []byte("{}"), ""); err != nil {
		t.Fatal(err)
	}
	// Rename the entry directory: manifest now names a different
	// fingerprint than its directory.
	if err := os.Rename(
		filepath.Join(a.Dir(), "entries", "1111"),
		filepath.Join(a.Dir(), "entries", "2222"),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("2222"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fingerprint mismatch: want ErrCorrupt, got %v", err)
	}
	// The mismatched entry is also invisible to List.
	metas, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 0 {
		t.Fatalf("List surfaced mismatched entry: %+v", metas)
	}
}

func TestMissingManifestIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("3333"), []byte("{}"), ""); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(a.Dir(), "entries", "3333", "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("3333"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing manifest: want ErrCorrupt, got %v", err)
	}
}

func TestMalformedManifestIsCorrupt(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("4444"), []byte("{}"), ""); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(a.Dir(), "entries", "4444", "manifest.json")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("4444"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("malformed manifest: want ErrCorrupt, got %v", err)
	}
}

func TestConcurrentPutFirstWriterWins(t *testing.T) {
	a := mustOpen(t)
	// Deterministic campaigns mean every writer carries identical bytes;
	// the archive just has to commit exactly one complete copy without
	// erroring or tearing.
	result := []byte(`{"app":"CoMD","runs":8}`)
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Put(testMeta("race01"), result, "")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	rec, err := a.Get("race01")
	if err != nil {
		t.Fatalf("Get after concurrent Put: %v", err)
	}
	if !bytes.Equal(rec.Result, result) {
		t.Fatalf("result bytes differ after concurrent Put: %q", rec.Result)
	}
	entries, _ := a.Stats()
	if entries != 1 {
		t.Fatalf("want 1 entry, have %d", entries)
	}
	// Staging area fully drained: every loser cleaned up after itself.
	stale, err := os.ReadDir(filepath.Join(a.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("staging leftovers after concurrent Put: %d", len(stale))
	}
}

func TestPutExistingIsNoOp(t *testing.T) {
	a := mustOpen(t)
	if err := a.Put(testMeta("aaaa"), []byte("first"), ""); err != nil {
		t.Fatal(err)
	}
	// Second Put (same fingerprint, hypothetically different bytes — can't
	// happen with deterministic campaigns) leaves the incumbent untouched.
	if err := a.Put(testMeta("aaaa"), []byte("second"), ""); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Get("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Result) != "first" {
		t.Fatalf("incumbent overwritten: %q", rec.Result)
	}
}

func TestOpenClearsStaging(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Put: a staged entry that never committed.
	stage := filepath.Join(dir, "tmp", "dead-123")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "result.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatal("Open left crash leftovers in staging")
	}
	_ = a
}

func TestListOrderAndStats(t *testing.T) {
	a := mustOpen(t)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i, fp := range []string{"fff", "aaa", "bbb"} {
		m := testMeta(fp)
		// Reverse chronological insertion order vs fingerprint order.
		m.Archived = base.Add(time.Duration(len("fff")-i) * time.Hour)
		if err := a.Put(m, []byte(fmt.Sprintf(`{"i":%d}`, i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("want 3 entries, have %d", len(metas))
	}
	// Ordered by Archived ascending: bbb (1h), aaa (2h), fff (3h).
	want := []string{"bbb", "aaa", "fff"}
	for i, m := range metas {
		if m.Fingerprint != want[i] {
			t.Fatalf("List order: got %s at %d, want %s", m.Fingerprint, i, want[i])
		}
	}
	entries, bytes := a.Stats()
	if entries != 3 || bytes <= 0 {
		t.Fatalf("Stats: entries=%d bytes=%d", entries, bytes)
	}
}

func TestInvalidFingerprintRejected(t *testing.T) {
	a := mustOpen(t)
	for _, fp := range []string{"", "../escape", "a/b", "a b", string(make([]byte, 200))} {
		if err := a.Put(Meta{Fingerprint: fp}, []byte("{}"), ""); err == nil {
			t.Fatalf("Put accepted invalid fingerprint %q", fp)
		}
		if _, err := a.Get(fp); err == nil {
			t.Fatalf("Get accepted invalid fingerprint %q", fp)
		}
	}
}

// TestPerFileReadsVerifyTheirOwnFile: File vouches for the one file it
// returns — damage to the other file is Get's business
// (and the next submission's), not theirs.
func TestPerFileReadsVerifyTheirOwnFile(t *testing.T) {
	a := mustOpen(t)
	jpath := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(jpath, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ fp, damaged, other string }{
		{"aa01", ResultFile, JournalFile},
		{"aa02", JournalFile, ResultFile},
	} {
		if err := a.Put(testMeta(tc.fp), []byte(`{"runs":14}`), jpath); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(a.Dir(), "entries", tc.fp, tc.damaged)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := a.File(tc.fp, tc.damaged); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s damaged: its own read = %v, want ErrCorrupt", tc.damaged, err)
		}
		if _, err := a.File(tc.fp, tc.other); err != nil {
			t.Errorf("%s damaged: read of %s = %v, want nil", tc.damaged, tc.other, err)
		}
		if _, err := a.Get(tc.fp); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s damaged: Get = %v, want ErrCorrupt", tc.damaged, err)
		}
	}
	if _, err := a.File("none", ResultFile); !errors.Is(err, ErrNotFound) {
		t.Errorf("File of a missing entry = %v, want ErrNotFound", err)
	}
}

// TestFamilySource: Source picks, among the entries of a family that hold
// a journal of the asked version, the one with the most runs below the
// request. Put and Remove keep the index current, and a reopened archive
// rebuilds it from the manifests.
func TestFamilySource(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(jpath, []byte("header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	put := func(fp, family string, runs, version int, journal string) {
		m := testMeta(fp)
		m.Family, m.Runs, m.JournalVersion = family, runs, version
		if err := a.Put(m, []byte(`{}`), journal); err != nil {
			t.Fatal(err)
		}
	}
	put("f10", "fam", 10, 2, jpath)
	put("f20", "fam", 20, 2, jpath)
	put("f30", "fam", 30, 2, jpath)
	put("f25-nojournal", "fam", 25, 2, "")
	put("f28-v1", "fam", 28, 1, jpath)
	put("g15", "other", 15, 2, jpath)
	check := func(label string, runs int, wantFP string) {
		t.Helper()
		fp, n, ok := a.Source("fam", runs, 2)
		if fp != wantFP || ok != (wantFP != "") {
			t.Errorf("%s: Source for %d runs = %q (%d runs, ok %v), want %q", label, runs, fp, n, ok, wantFP)
		}
	}
	check("below every entry", 10, "")
	check("between", 29, "f20")
	check("above every entry", 100, "f30")
	if err := a.Remove("f30"); err != nil {
		t.Fatal(err)
	}
	check("after Remove", 100, "f20")
	if a, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check("reopened", 100, "f20")
}

// TestCRCSumKnownInputs pins the manifest's checksum: CRC-32C (Castagnoli)
// then IEEE CRC-32, each as 8 hex digits, on inputs whose CRCs an
// independent bitwise implementation computed. A change of polynomial,
// of their order or of byte order fails here rather than evicting every
// archived entry.
func TestCRCSumKnownInputs(t *testing.T) {
	long := make([]byte, 100000)
	for i := range long {
		long[i] = byte(i * 7 % 251)
	}
	block := make([]byte, 1024)
	for i := range block {
		block[i] = byte(i)
	}
	for _, tc := range []struct {
		in   []byte
		want string
	}{
		{nil, "0000000000000000"},
		{[]byte("a"), "c1d04330e8b7be43"},
		{[]byte("123456789"), "e3069283cbf43926"},
		{[]byte("The quick brown fox jumps over the lazy dog"), "22620404414fa339"},
		{[]byte(`{"kind":"header","version":2}` + "\n"), "e60d81e94c3bfe93"},
		{block, "2cdf6e8fb70b4c26"},
		{long, "ef3b5935b0a8c3cd"},
	} {
		if got := crcSum(tc.in); got != tc.want {
			t.Errorf("crcSum of %d bytes %.20q = %s, want %s", len(tc.in), tc.in, got, tc.want)
		}
	}
}

// TestPutWritesCRCSums: a new manifest records each file's size and CRC
// sum under "crc", and no FNV-64a "sum".
func TestPutWritesCRCSums(t *testing.T) {
	a := mustOpen(t)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(journal, []byte("{\"kind\":\"header\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	result := []byte(`{"app":"LULESH"}`)
	if err := a.Put(testMeta("crc"), result, journal); err != nil {
		t.Fatal(err)
	}
	_, m, err := a.readManifest("crc")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]fileSum{
		ResultFile:  {Bytes: int64(len(result)), CRC: crcSum(result)},
		JournalFile: {Bytes: 18, CRC: crcSum([]byte("{\"kind\":\"header\"}\n"))},
	}
	if fmt.Sprint(m.Files) != fmt.Sprint(want) {
		t.Errorf("manifest files %+v, want %+v", m.Files, want)
	}
}

// TestLegacySumVerifies: an entry whose manifest carries the FNV-64a
// "sum" older builds wrote is served, verified against that sum; the
// same entry with one payload byte flipped is ErrCorrupt.
func TestLegacySumVerifies(t *testing.T) {
	a := mustOpen(t)
	result, journal := []byte(`{"app":"LULESH","runs":14}`), []byte("{\"kind\":\"header\"}\n")
	dir := a.entryDir("legacy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := fmt.Sprintf(`{"fingerprint":"legacy","app":"LULESH","runs":14,"seed":5,"archived":"2026-08-08T12:00:00Z",`+
		`"files":{"result.json":{"bytes":%d,"sum":"%s"},"journal.jsonl":{"bytes":%d,"sum":"%s"}}}`,
		len(result), fnvSum(result), len(journal), fnvSum(journal))
	for name, data := range map[string][]byte{manifestFile: []byte(manifest), ResultFile: result, JournalFile: journal} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := a.Get("legacy")
	if err != nil || !bytes.Equal(rec.Result, result) || !bytes.Equal(rec.Journal, journal) {
		t.Fatalf("Get of a legacy entry = %v, want its bytes", err)
	}
	for _, name := range []string{ResultFile, JournalFile} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x01
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := a.File("legacy", name); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s with one byte flipped: %v, want ErrCorrupt", name, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
