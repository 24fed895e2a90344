package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apps"
)

// The journal codec's oracle is encoding/json: appendRecord must write
// json.Encoder's bytes and errors, and decodeRecord must give every line
// json.Unmarshal's verdict and value.

const legacyJournal = "testdata/journal_legacy.jsonl"

// journalLines splits a journal into its lines, without their newlines.
func journalLines(data []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// checkDecode asserts that decodeRecord and json.Unmarshal agree on line.
func checkDecode(t testing.TB, line []byte) (journalRecord, error) {
	t.Helper()
	var want, got journalRecord
	werr := json.Unmarshal(line, &want)
	gerr := decodeRecord(line, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode of %q: codec error %v, encoding/json error %v", line, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %q:\ncodec         %+v\nencoding/json %+v", line, got, want)
	}
	return got, gerr
}

// checkEncode asserts that appendRecord appends json.Encoder's bytes, or
// fails with its error and appends nothing, and returns what it appended.
func checkEncode(t testing.TB, rec *journalRecord) []byte {
	t.Helper()
	var v any = *rec
	if rec.header != nil {
		v = *rec.header
	}
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(v)
	prefix := []byte("prefix")
	got, gerr := appendRecord(prefix[:len(prefix):len(prefix)], rec)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("encode of %+v: codec error %v, encoding/json error %v", v, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("encode of %+v failed but appended %q", v, got[len(prefix):])
		}
	case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()):
		t.Fatalf("encode of %+v:\ncodec         %s\nencoding/json %s", v, got, want.Bytes())
	}
	return got[len(prefix):]
}

// TestJournalLegacyFixture: every historical line form — headers with and
// without a trace, records from before Stratum, Pattern and Diag, a
// zero-fault plan, per-structure totals, a Diag that needs escaping,
// floats in exponent form, an adaptive plan record as older builds wrote
// one, and a truncated line followed by one more record — decodes exactly
// as json.Unmarshal decodes it, headers and experiments re-encode to their
// own bytes, and readJournal and ReplayJournal skip the plan record and
// end at the truncated line. Only the line with escapes in it and the
// lines that are not experiments take encoding/json's path.
func TestJournalLegacyFixture(t *testing.T) {
	data, err := os.ReadFile(legacyJournal)
	if err != nil {
		t.Fatal(err)
	}
	lines := journalLines(data)

	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	var want []journalRecord
	stopped := false
	for i, line := range lines {
		if kind := kindOf(line); kind == "header" {
			got, err := decodeHeader(line)
			var ref journalHeader
			if json.Unmarshal(line, &ref) != nil || err != nil || got != ref {
				t.Errorf("line %d: header %+v (err %v), encoding/json %+v", i+1, got, err, ref)
			}
			if enc := checkEncode(t, &journalRecord{header: &got}); !bytes.Equal(enc, append(line, '\n')) {
				t.Errorf("line %d: header re-encodes as %s", i+1, enc)
			}
		}
		if i == 0 {
			continue
		}
		before := JournalFallbacks()
		rec, err := checkDecode(t, line)
		fast := JournalFallbacks() == before
		if wantFast := err == nil && rec.Kind == "exp" && !bytes.ContainsRune(line, '\\'); fast != wantFast {
			t.Errorf("line %d: fast path %v, want %v", i+1, fast, wantFast)
		}
		if err != nil {
			stopped = true
		}
		if err != nil || rec.Kind != "exp" {
			continue
		}
		if enc := checkEncode(t, &rec); !bytes.Equal(enc, append(line, '\n')) {
			t.Errorf("line %d re-encodes as\n%s", i+1, enc)
		}
		if !stopped {
			want = append(want, rec)
		}
	}
	if !stopped || len(want) == 0 {
		t.Fatalf("the fixture must hold records and a line that does not decode (%d records, stopped %v)", len(want), stopped)
	}

	// The fixture is a version 1 journal, which a resume refuses; its
	// records, under a current header, it reads.
	// Its header names no run count; any will do.
	wantHdr := journalHeader{Version: JournalVersion, Fingerprint: hdr.Fingerprint, Runs: math.MaxInt}
	if _, _, _, err := readJournal(legacyJournal, wantHdr); err == nil || !strings.Contains(err.Error(), "journal version 1") {
		t.Errorf("readJournal of a version 1 journal: err %v, want a version error", err)
	}
	current := filepath.Join(t.TempDir(), "current.jsonl")
	hdr.Version = JournalVersion
	head, err := appendRecord(nil, &journalRecord{header: &hdr})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(current, append(head, data[len(lines[0])+1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, keep, _, err := readJournal(current, wantHdr)
	if err != nil || keep == 0 {
		t.Fatalf("readJournal: keep=%d, err=%v", keep, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("readJournal gave %d records, want the %d before the truncated line", len(got), len(want))
	}
	n := 0
	if err := ReplayJournal(bytes.NewReader(data), func(JournalEvent) bool { n++; return true }); err != nil || n != len(want) {
		t.Errorf("ReplayJournal gave %d events (err %v), want %d", n, err, len(want))
	}
}

// kindOf reads a line's kind the way the oracle does.
func kindOf(line []byte) string {
	var k struct {
		Kind string `json:"kind"`
	}
	json.Unmarshal(line, &k)
	return k.Kind
}

// edgeRecord is a canonical experiment line that journalEdges edits.
const edgeRecord = `{"kind":"exp","sum":{"ID":1,"Plan":{"Faults":[{"Rank":0,"Site":5,"Bit":3}]},"Outcome":0,"Planned":true,"InjRank":0,"InjCycle":7,"Fired":true,"MaxCML":0,"TotalPeakCML":0,"ContamPct":0,"RanksContaminated":0,"Cycles":9,"Fit":{"A":0,"B":0,"Knee":0,"Plateau":0,"R2":0,"ValidationErr":0,"Points":0},"HasFit":false}}`

// journalEdges are lines at the edges of the fast path, each with the
// path it must take.
var journalEdges = []journalEdge{
	{`"ID":1`, `"ID":1`, true},
	{`{"kind"`, " \t\r\n{\"kind\"", true},
	{`"HasFit":false}}`, "\"HasFit\":false}} \n", true},
	{`"kind":"exp","sum":`, `"sum":`, true},
	{"", `{"sum":{"Cycles":9,"ID":1},"kind":"exp"}`, true},
	{`"ID":1`, `"ID":-0`, true},
	{`"ID":1`, `"ID":-9223372036854775808`, true},
	{`"InjCycle":7`, `"InjCycle":18446744073709551615`, true},
	{`"Bit":3`, `"Bit":18446744073709551615`, true},
	{`"ContamPct":0`, `"ContamPct":-0`, true},
	{`"ContamPct":0`, `"ContamPct":1E+2`, true},
	{`"ContamPct":0`, `"ContamPct":0.5e-3`, true},
	{`"ContamPct":0`, `"ContamPct":4.9e-324`, true},
	{`[{"Rank":0,"Site":5,"Bit":3}]`, `[]`, true},
	{`[{"Rank":0,"Site":5,"Bit":3}]`, `null`, true},
	{`"HasFit":false}`, `"HasFit":false,"Pattern":{}}`, true},
	{`"HasFit":false}`, `"HasFit":false},"points":[],"spread":[],"structCML":{}`, true},
	{`"kind":"exp"`, `"kind":"x y~"`, true},

	{`"kind":"exp"`, `"kind":"exp","kind":"plan"`, false},
	{`"ID":1`, `"ID":1,"ID":2`, false},
	{`"Site":5`, `"Site":5,"Site":6`, false},
	{`"HasFit":false}`, `"HasFit":false},"structCML":{"a":1,"a":2}`, false},
	{`"kind"`, `"Kind"`, false},
	{`"ID"`, `"id"`, false},
	{`"ID":1`, `"ID":1,"extra":[1,{"x":null}]`, false},
	{`"InjCycle":7`, `"InjCycle":-1`, false},
	{`"InjCycle":7`, `"InjCycle":-0`, false},
	{`"Bit":3`, `"Bit":18446744073709551616`, false},
	{`"ID":1`, `"ID":9223372036854775808`, false},
	{`"ID":1`, `"ID":-9223372036854775809`, false},
	{`"ID":1`, `"ID":1.0`, false},
	{`"ID":1`, `"ID":1e3`, false},
	{`"ID":1`, `"ID":01`, false},
	{`"ID":1`, `"ID":+1`, false},
	{`"ContamPct":0`, `"ContamPct":1e400`, false},
	{`"ContamPct":0`, `"ContamPct":.5`, false},
	{`"ContamPct":0`, `"ContamPct":5.`, false},
	{`"ContamPct":0`, `"ContamPct":1e`, false},
	{`"HasFit":false}`, `"HasFit":false,"Pattern":null}`, false},
	{`"HasFit":false}`, `"HasFit":false},"points":null`, false},
	{`"Planned":true`, `"Planned":null`, false},
	{`"ID":1`, `"ID": 1`, false},
	{`"kind":"exp"`, `"kind":"\u0065xp"`, false},
	{`"HasFit":false}`, `"HasFit":false,"Diag":"é"}`, false},
	{`"kind":"exp"`, "\"kind\":\"e\txp\"", false},
	{`"HasFit":false}}`, `"HasFit":false}}x`, false},
	{`"HasFit":false}}`, `"HasFit":false}}{}`, false},
	{"", `null`, false},
	{"", `[]`, false},
	{"", ``, false},
}

// journalEdge is edgeRecord with its first old replaced by new, or the
// line new when old is empty.
type journalEdge struct {
	old, new string
	fast     bool
}

func (e journalEdge) line() []byte {
	if e.old == "" {
		return []byte(e.new)
	}
	return []byte(strings.Replace(edgeRecord, e.old, e.new, 1))
}

// TestJournalDecodeEdges: each edge line gets json.Unmarshal's verdict
// and value, through the path the table names.
func TestJournalDecodeEdges(t *testing.T) {
	for _, e := range journalEdges {
		if !strings.Contains(edgeRecord, e.old) {
			t.Fatalf("edgeRecord holds no %q", e.old)
		}
		line := e.line()
		before := JournalFallbacks()
		checkDecode(t, line)
		if fast := JournalFallbacks() == before; fast != e.fast {
			t.Errorf("%s: fast path %v, want %v", line, fast, e.fast)
		}
	}
}

// TestJournalDecodeMutations holds the decoder, and the replay's, to
// json.Unmarshal on every prefix of every fixture line and on each line
// with any one byte deleted or replaced by one of the bytes JSON's grammar
// turns on.
func TestJournalDecodeMutations(t *testing.T) {
	data, err := os.ReadFile(legacyJournal)
	if err != nil {
		t.Fatal(err)
	}
	const subs = `-0.e"\}x`
	fast := 0
	for _, line := range journalLines(data) {
		for i := 0; i <= len(line); i++ {
			checkDecode(t, line[:i])
			checkReplay(t, line[:i])
			if i == len(line) {
				break
			}
			del := append(line[:i:i], line[i+1:]...)
			checkDecode(t, del)
			checkReplay(t, del)
			for _, c := range []byte(subs) {
				mut := append([]byte(nil), line...)
				mut[i] = c
				before := JournalFallbacks()
				checkDecode(t, mut)
				if JournalFallbacks() == before {
					fast++
				}
				checkReplay(t, mut)
			}
		}
	}
	if fast == 0 {
		t.Error("no mutated line took the fast path: the comparison is vacuous")
	}
}

// TestJournalFastPathTaken: every experiment record the engine writes —
// five apps, fixed, per-site with strata, multi-fault and adaptive
// campaigns — decodes without encoding/json, equals json.Unmarshal's
// decoding, and re-encodes to its own bytes; no journal holds any other
// line but its header, and neither a replay nor a resume of it hands
// encoding/json anything.
func TestJournalFastPathTaken(t *testing.T) {
	modes := []struct {
		name string
		s    Sampling
	}{
		{"fixed", Sampling{Runs: 8, Seed: 7}},
		{"sites-strata", Sampling{Runs: 8, Seed: 7, Sites: true, Strata: 4}},
		{"multifault", Sampling{Runs: 8, Seed: 7, MultiFaultLambda: 0.3}},
		{"adaptive", Sampling{Runs: 40, Seed: 7, TargetCI: 0.3}},
	}
	forms := map[string]int{`"Faults":null`: 0, `"HasFit":true`: 0, `"Pattern":`: 0,
		`"points":`: 0, `"spread":`: 0, `"structCML":`: 0}
	defer func() {
		for form, n := range forms {
			if n == 0 {
				t.Errorf("no journal line holds %s: the campaigns miss a record form", form)
			}
		}
	}()
	for _, app := range apps.All() {
		for _, mode := range modes {
			t.Run(app.Name()+"/"+mode.name, func(t *testing.T) {
				cfg := CampaignConfig{
					App: app, Params: app.TestParams(), Sampling: mode.s,
					Execution:   Execution{SampleEvery: 64, Workers: 2},
					Persistence: Persistence{Checkpoint: filepath.Join(t.TempDir(), "j.jsonl")},
				}
				if _, err := RunCampaign(cfg); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(cfg.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				for form := range forms {
					forms[form] += bytes.Count(data, []byte(form))
				}
				exps := 0
				for i, line := range journalLines(data)[1:] {
					before := JournalFallbacks()
					rec, err := checkDecode(t, line)
					if err != nil {
						t.Fatalf("line %d does not decode: %v", i+2, err)
					}
					if rec.Kind != "exp" {
						t.Fatalf("line %d is a %q record", i+2, rec.Kind)
					}
					exps++
					if JournalFallbacks() != before {
						t.Errorf("line %d took encoding/json's path: %s", i+2, line)
					}
					if enc := checkEncode(t, &rec); !bytes.Equal(enc, append(line, '\n')) {
						t.Errorf("line %d re-encodes as\n%s", i+2, enc)
					}
				}
				if exps == 0 {
					t.Fatal("the journal holds no experiment")
				}
				replayed, replayBefore := 0, ReplayFallbacks()
				if err := ReplayJournal(bytes.NewReader(data), func(JournalEvent) bool { replayed++; return true }); err != nil || replayed != exps {
					t.Errorf("ReplayJournal gave %d events (err %v), want %d", replayed, err, exps)
				}
				if d := ReplayFallbacks() - replayBefore; d != 0 {
					t.Errorf("ReplayJournal sent %d lines to encoding/json, want none", d)
				}
				cfg.Resume = true
				before := JournalFallbacks()
				if _, err := RunCampaign(cfg); err != nil {
					t.Fatal(err)
				}
				if d := JournalFallbacks() - before; d != 0 {
					t.Errorf("resume sent %d lines to encoding/json, want none", d)
				}
			})
		}
	}
}

// TestJournalCodecGenerated fills every field of the journaled types with
// testing/quick's random values — so a field added to ExperimentSummary
// or the record and not taught to the codec fails here — and requires
// json.Encoder's bytes, json.Unmarshal's value for those bytes, and the
// fast path whenever every string is plain.
func TestJournalCodecGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	gen := func(v any) {
		val, ok := quick.Value(reflect.TypeOf(v).Elem(), rng)
		if !ok {
			t.Fatalf("quick cannot generate %T", v)
		}
		reflect.ValueOf(v).Elem().Set(val)
	}
	for i := 0; i < 600; i++ {
		rec := journalRecord{Kind: "exp"}
		gen(&rec.Sum)
		gen(&rec.Points)
		gen(&rec.Spread)
		gen(&rec.StructCML)
		plain := i%2 == 0
		if plain {
			rec.Sum.Diag = fmt.Sprintf("diag %d", i)
			m := map[string]int{}
			for _, v := range rec.StructCML {
				m[fmt.Sprintf("s%d", len(m))] = v
			}
			rec.StructCML = m
		}
		line := checkEncode(t, &rec)
		before := JournalFallbacks()
		if _, err := checkDecode(t, bytes.TrimSuffix(line, []byte("\n"))); err != nil {
			t.Fatalf("the codec's own line does not decode: %v\n%s", err, line)
		}
		if plain && JournalFallbacks() != before {
			t.Fatalf("a line of plain strings took encoding/json's path:\n%s", line)
		}
	}
}

// journalSeeds are the fixture's lines: the seed corpus of both fuzz
// targets.
func journalSeeds(f *testing.F) [][]byte {
	data, err := os.ReadFile(legacyJournal)
	if err != nil {
		f.Fatal(err)
	}
	return journalLines(data)
}

// FuzzJournalEncode: records built from arbitrary lines, with arbitrary
// floats (NaN and ±Inf among them), kinds, Diag texts and structure
// names, encode to json.Encoder's bytes or fail with its error.
func FuzzJournalEncode(f *testing.F) {
	for _, line := range journalSeeds(f) {
		f.Add(line, 0.0, 0.0, "exp", "", "")
		f.Add(line, math.NaN(), 1e-7, "exp", "", "")
		f.Add(line, 1e21, math.Inf(-1), "plan", "", "")
		f.Add(line, math.Copysign(0, -1), 9.999999e-7, "exp", "a \"b\"\n<c> & d\u2028\xff é", "σ<x>")
		f.Add(line, 5e-324, -1e21, "exp", "a<b", "c>d")
		f.Add(line, 1e20, -1e-6, "exp&", "e&f", "")
	}
	f.Fuzz(func(t *testing.T, line []byte, contam, knee float64, kind, diag, key string) {
		var rec journalRecord
		json.Unmarshal(line, &rec) // whatever decodes is the starting record
		rec.Kind, rec.Sum.ContamPct, rec.Sum.Fit.Knee, rec.Sum.Diag = kind, contam, knee, diag
		if key != "" {
			m := map[string]int{key: len(diag)}
			for k, v := range rec.StructCML {
				m[k] = v
			}
			rec.StructCML = m
		}
		checkEncode(t, &rec)
	})
}

// FuzzJournalDecode: any line — a fixture or edge line, truncated or
// mutated — gets json.Unmarshal's verdict and value from decodeRecord.
func FuzzJournalDecode(f *testing.F) {
	for _, line := range journalSeeds(f) {
		f.Add(line)
	}
	for _, e := range journalEdges {
		f.Add(e.line())
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkDecode(t, line) })
}

// recordMirror is journalRecord without any method it may gain: the
// oracle's own decoding, which no codec can reach.
type recordMirror journalRecord

// checkReplay asserts that decodeReplayed gives line json.Unmarshal's
// verdict, kind and summary — decodeRecord's — but for the plan's faults,
// which the replay's fast path does not keep.
func checkReplay(t testing.TB, line []byte) {
	t.Helper()
	var want, got journalRecord
	werr := json.Unmarshal(line, (*recordMirror)(&want))
	gerr := decodeReplayed(line, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("replay of %q: replay error %v, encoding/json error %v", line, gerr, werr)
	}
	if werr != nil {
		return
	}
	want.Sum.Plan.Faults, got.Sum.Plan.Faults = nil, nil
	if got.Kind != want.Kind || !reflect.DeepEqual(got.Sum, want.Sum) {
		t.Fatalf("replay of %q:\nreplay        %q %+v\nencoding/json %q %+v", line, got.Kind, got.Sum, want.Kind, want.Sum)
	}
}

// replayEdges are lines whose keys a record's decoding skips, with the
// path the replay must take.
var replayEdges = []struct {
	line string
	fast bool
}{
	{`{"kind":"header","version":2,"fingerprint":"abc","trace":"t-1"}`, true},
	{`{"kind":"header","version":2,"version":3}`, true},
	{`{"kind":"plan","round":1,"targetCI":0.25,"allocs":[{"stratum":0,"label":"a/b","ids":[1,2]}],"run":[1,2]}`, true},
	{`{"kind":"exp","x":[null,true,false,{},[],-0.5e3,"s"]}`, true},
	{`{"kind":"exp","x":1e400}`, true},
	{`{"kind":"exp","x":[1,]}`, false},
	{`{"kind":"exp","x":"\u00e9"}`, false},
	{`{"kind":"exp","KIND":"plan"}`, false},
	{`{"kind":"exp","Sum":{}}`, false},
	{`{"kind":"exp","structcml":{}}`, false},
	{`{"kind":"exp","x":` + strings.Repeat("[", 1100) + strings.Repeat("]", 1100) + `}`, false},
}

// TestReplayMatchesDecodeRecord: on every edge line of either decoder,
// and every prefix of them, the replay agrees with json.Unmarshal, as
// decodeRecord does, through the path replayEdges names (the fixture's
// lines, mutated, are TestJournalDecodeMutations').
func TestReplayMatchesDecodeRecord(t *testing.T) {
	var lines [][]byte
	for _, e := range journalEdges {
		lines = append(lines, e.line())
	}
	for _, e := range replayEdges {
		before := ReplayFallbacks()
		checkReplay(t, []byte(e.line))
		if fast := ReplayFallbacks() == before; fast != e.fast {
			t.Errorf("%.80s: fast path %v, want %v", e.line, fast, e.fast)
		}
		lines = append(lines, []byte(e.line))
	}
	for _, line := range lines {
		for i := 0; i <= len(line); i++ {
			checkReplay(t, line[:i])
		}
	}
}

// FuzzJournalReplay: any line gets json.Unmarshal's verdict, kind and
// summary from the replay, as it does from decodeRecord
// (FuzzJournalDecode), whose corpus seeds this one.
func FuzzJournalReplay(f *testing.F) {
	for _, line := range journalSeeds(f) {
		f.Add(line)
	}
	for _, e := range journalEdges {
		f.Add(e.line())
	}
	for _, e := range replayEdges {
		f.Add([]byte(e.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkReplay(t, line) })
}

// benchJournal runs a small per-site, stratified LULESH campaign and
// returns its journal's experiment lines and their records.
func benchJournal(b *testing.B) ([][]byte, []journalRecord) {
	b.Helper()
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App: app, Params: app.TestParams(),
		Sampling:    Sampling{Runs: 200, Seed: 2015, Sites: true, Strata: 4},
		Execution:   Execution{SampleEvery: 256, Snapshots: 64},
		Persistence: Persistence{Checkpoint: filepath.Join(b.TempDir(), "bench.jsonl")},
	}
	if _, err := RunCampaign(cfg); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		b.Fatal(err)
	}
	var lines [][]byte
	var recs []journalRecord
	for _, line := range journalLines(data)[1:] {
		var rec journalRecord
		if decodeRecord(line, &rec) == nil && rec.Kind == "exp" {
			lines = append(lines, line)
			recs = append(recs, rec)
		}
	}
	return lines, recs
}

// BenchmarkJournalAppend times encoding one experiment record: the codec
// into a reused buffer, and the json.Encoder the journal used before it.
func BenchmarkJournalAppend(b *testing.B) {
	_, recs := benchJournal(b)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendRecord(buf[:0], &recs[i%len(recs)])
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc.Encode(recs[i%len(recs)])
		}
	})
}

// benchRecord keeps the decode benchmarks' results live.
var benchRecord journalRecord

// BenchmarkJournalDecode times decoding one experiment line: the codec,
// and the json.Unmarshal every reader used before it.
func BenchmarkJournalDecode(b *testing.B) {
	lines, _ := benchJournal(b)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decodeRecord(lines[i%len(lines)], &benchRecord)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRecord = journalRecord{}
			json.Unmarshal(lines[i%len(lines)], &benchRecord)
		}
	})
}
