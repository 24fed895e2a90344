package harness

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/trace"
)

// sampleResults builds a small but field-rich result set so round-trip
// tests exercise nested structures, not just the envelope.
func sampleResults() []*CampaignResult {
	return []*CampaignResult{{
		App:  "hydro",
		Runs: 2,
		Tally: func() classify.Tally {
			var t classify.Tally
			t.Add(classify.Vanished)
			t.Add(classify.Crashed)
			return t
		}(),
		Experiments: []ExperimentSummary{
			{
				ID:      0,
				Plan:    inject.Plan{Faults: []inject.Fault{{Rank: 1, Site: 7, Bit: 13}}},
				Planned: true,
				Outcome: classify.Vanished,
				InjRank: 1,
				Fired:   true,
				Cycles:  1234,
			},
			{ID: 1, Planned: false, Outcome: classify.Crashed, Diag: "experiment panic: boom"},
		},
		Profiles: []Profile{{
			ID:      0,
			Outcome: classify.Vanished,
			Points:  []trace.Point{{Cycles: 10, CML: 1}, {Cycles: 20, CML: 3}},
		}},
		BestSpread:   SpreadSeries{ID: 0, Points: []trace.SpreadPoint{{Time: 10, Ranks: 1}}},
		StructTotals: map[string]int{"e": 3, "(heap)": 1},
	}}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, name := range []string{"results.json", "results.json.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			want := sampleResults()
			if err := SaveResults(path, want); err != nil {
				t.Fatalf("SaveResults: %v", err)
			}
			got, err := LoadResults(path)
			if err != nil {
				t.Fatalf("LoadResults: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got[0], want[0])
			}
		})
	}
}

func TestLoadResultsGzipIsActuallyCompressed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json.gz")
	if err := SaveResults(path, sampleResults()); err != nil {
		t.Fatalf("SaveResults: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := gzip.NewReader(f); err != nil {
		t.Errorf("file is not valid gzip: %v", err)
	}
}

func TestLoadResultsRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	// A well-formed v1 file, as written before ExperimentSummary gained
	// Planned/Diag. Loading must fail loudly, not silently misread.
	if err := os.WriteFile(path, []byte(`{"version":1,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadResults(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("LoadResults(v1 file) err = %v, want version mismatch", err)
	}
}

func TestLoadResultsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"r.json", "r.json.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := SaveResults(path, sampleResults()); err != nil {
				t.Fatalf("SaveResults: %v", err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadResults(path); err == nil {
				t.Error("LoadResults(truncated) = nil error, want failure")
			}
		})
	}
}

func TestLoadResultsMissingFile(t *testing.T) {
	if _, err := LoadResults(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("LoadResults(missing) = nil error, want failure")
	}
}

// TestSaveResultsKeepsPreviousFileOnError: a save that fails — here json
// refusing a NaN — returns its error and leaves the results saved before
// it byte-identical, with no temp file beside them.
func TestSaveResultsKeepsPreviousFileOnError(t *testing.T) {
	for _, name := range []string{"r.json", "r.json.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			if err := SaveResults(path, sampleResults()); err != nil {
				t.Fatalf("SaveResults: %v", err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := sampleResults()
			bad[0].Model.FPS = math.NaN()
			if err := SaveResults(path, bad); err == nil {
				t.Fatal("SaveResults(NaN) = nil error, want json's refusal")
			}
			after, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(after, before) {
				t.Fatalf("the failed save changed the previous file (err %v, %d bytes, want %d)", err, len(after), len(before))
			}
			if _, err := LoadResults(path); err != nil {
				t.Errorf("LoadResults after the failed save: %v", err)
			}
			if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
				t.Errorf("the failed save left %d files, want the results file alone", len(entries))
			}
		})
	}
}
