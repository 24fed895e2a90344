package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/durable"
)

// TestRecordsIndependentOfRuns holds the invariant incremental campaigns
// rest on: experiment i's record does not depend on the campaign's run
// count. For every application at test scale, plain, stratified with
// per-site analytics, and multi-fault, each record of an N-run journal
// appears byte for byte in the 2N-run journal of the same seed.
func TestRecordsIndependentOfRuns(t *testing.T) {
	const n = 12
	variants := []struct {
		name string
		edit func(*CampaignConfig)
	}{
		{"plain", func(*CampaignConfig) {}},
		{"sites-strata", func(c *CampaignConfig) { c.Sites, c.Strata = true, 4 }},
		{"multi", func(c *CampaignConfig) { c.MultiFaultLambda = 1 }},
	}
	for _, app := range apps.All() {
		for _, v := range variants {
			t.Run(app.Name()+"/"+v.name, func(t *testing.T) {
				records := func(runs int) [][]byte {
					cfg := CampaignConfig{
						App: app, Params: app.TestParams(),
						Sampling:    Sampling{Runs: runs, Seed: 2015},
						Execution:   Execution{SampleEvery: 64, Workers: 2, Snapshots: 64},
						Persistence: Persistence{Checkpoint: filepath.Join(t.TempDir(), "journal")},
					}
					v.edit(&cfg)
					if _, err := RunCampaign(cfg); err != nil {
						t.Fatal(err)
					}
					data, err := os.ReadFile(cfg.Checkpoint)
					if err != nil {
						t.Fatal(err)
					}
					return journalLines(data)[1:]
				}
				short, long := records(n), records(2*n)
				if len(short) != n || len(long) != 2*n {
					t.Fatalf("journals hold %d and %d records, want %d and %d", len(short), len(long), n, 2*n)
				}
				in := make(map[string]bool, len(long))
				for _, l := range long {
					in[string(l)] = true
				}
				for _, l := range short {
					if !in[string(l)] {
						t.Errorf("the %d-run journal's record is not in the %d-run journal:\n%.300s", n, 2*n, l)
					}
				}
			})
		}
	}
}

// familyBase is the campaign the family tests journal and resume.
func familyBase(runs int) CampaignConfig {
	app := apps.NewHydro()
	return CampaignConfig{
		App: app, Params: app.TestParams(),
		Sampling:  Sampling{Runs: runs, Seed: 7},
		Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 64},
	}
}

// TestFamilyResume resumes campaigns from the journal of a shorter
// campaign of their family, and from journals that are not one. A longer
// campaign replays the shorter one's records, runs only the rest, and
// leaves the journal it would have written fresh, under its own header.
// Every journal of another family — another seed, fault rate, protect
// list, strata or site setting — is refused and left as it was, and so is
// one of a longer campaign, or one holding an experiment the campaign
// does not have.
func TestFamilyResume(t *testing.T) {
	dir := t.TempDir()
	journal := func(name string, cfg CampaignConfig) []byte {
		cfg.Checkpoint = filepath.Join(dir, name)
		if _, err := RunCampaign(cfg); err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	short := journal("short", familyBase(6))
	fresh := journal("fresh", familyBase(12))
	ref, err := RunCampaign(familyBase(12))
	if err != nil {
		t.Fatal(err)
	}

	// resume runs cfg from a copy of src, returning its result, what it
	// executed and replayed, and its journal afterwards.
	resume := func(cfg CampaignConfig, src []byte) (*CampaignResult, int, int, []byte, error) {
		cfg.Checkpoint, cfg.Resume = filepath.Join(t.TempDir(), "journal"), true
		if err := os.WriteFile(cfg.Checkpoint, src, 0o644); err != nil {
			t.Fatal(err)
		}
		executed, replayed := 0, 0
		cfg.OnExperiment = func(_ ExperimentSummary, resumed bool) {
			if resumed {
				replayed++
			} else {
				executed++
			}
		}
		res, err := RunCampaign(cfg)
		after, rerr := os.ReadFile(cfg.Checkpoint)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return res, executed, replayed, after, err
	}

	t.Run("longer", func(t *testing.T) {
		res, executed, replayed, after, err := resume(familyBase(12), short)
		if err != nil {
			t.Fatal(err)
		}
		if executed != 6 || replayed != 6 {
			t.Errorf("executed %d and replayed %d experiments, want 6 and 6", executed, replayed)
		}
		assertSameStudy(t, "resumed from the 6-run journal", ref, res)
		if !bytes.Equal(after, fresh) {
			t.Errorf("the resumed journal differs from a fresh one:\n got: %.300s\nwant: %.300s", after, fresh)
		}
		hdr, err := decodeHeader(journalLines(after)[0])
		if err != nil || hdr.Fingerprint != familyBase(12).Fingerprint() || hdr.Runs != 12 {
			t.Errorf("the resumed journal is headed %+v (%v), want the 12-run campaign's", hdr, err)
		}
	})

	// A 12-run journal cut after its fourth record holds only experiments
	// a 6-run campaign has, but it is still a longer campaign's.
	cut := fresh[:len(bytes.Join(journalLines(fresh)[:5], []byte{'\n'}))+1]
	// A journal headed as a 6-run campaign's that holds experiment 6.
	stray := append(bytes.Clone(short), journalLines(fresh)[7]...)
	stray = append(stray, '\n')

	for _, tc := range []struct {
		name string
		src  []byte
		edit func(*CampaignConfig)
	}{
		{"seed", short, func(c *CampaignConfig) { c.Seed = 8 }},
		{"lambda", short, func(c *CampaignConfig) { c.MultiFaultLambda = 1 }},
		{"protect", short, func(c *CampaignConfig) { c.Protect = []int{1, 4} }},
		{"strata", short, func(c *CampaignConfig) { c.Strata = 4 }},
		{"sites", short, func(c *CampaignConfig) { c.Sites = true }},
		{"longer-journal", cut, func(c *CampaignConfig) { c.Runs = 6 }},
		{"stray-record", stray, func(c *CampaignConfig) { c.Runs = 6 }},
	} {
		t.Run("refuses-"+tc.name, func(t *testing.T) {
			cfg := familyBase(12)
			tc.edit(&cfg)
			_, executed, _, after, err := resume(cfg, tc.src)
			if !errors.Is(err, ErrFingerprintMismatch) {
				t.Errorf("resume returned %v, want %v", err, ErrFingerprintMismatch)
			}
			if executed != 0 || !bytes.Equal(after, tc.src) {
				t.Errorf("the refused resume executed %d experiments and left %d journal bytes of %d", executed, len(after), len(tc.src))
			}
		})
	}
}

// TestSeedJournal starts a longer campaign's journal from a shorter one of
// its family in one write: the records under the longer campaign's own
// header. Resuming from it replays them, runs only the rest, replaces no
// file and leaves the journal a fresh run writes. A journal of another
// family or version is refused and nothing is written, and an adaptive
// campaign, which has no family, takes none.
func TestSeedJournal(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, cfg CampaignConfig) []byte {
		cfg.Checkpoint = filepath.Join(dir, name)
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	short, fresh := run("short", familyBase(6)), run("fresh", familyBase(12))

	cfg := familyBase(12)
	cfg.Checkpoint, cfg.Resume = filepath.Join(dir, "seeded"), true
	if err := SeedJournal(cfg.Checkpoint, cfg, short); err != nil {
		t.Fatal(err)
	}
	seeded, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Clone(journalLines(fresh)[0]), '\n'); !bytes.HasPrefix(seeded, want) ||
		!bytes.Equal(seeded[len(want):], short[len(journalLines(short)[0])+1:]) {
		t.Fatalf("the seeded journal is not the 12-run header over the 6-run records:\n%.400s", seeded)
	}

	var replaced, appended atomic.Int32
	observe := func(path string, _ []byte, replace bool) {
		if path == cfg.Checkpoint && replace {
			replaced.Add(1)
		} else if path == cfg.Checkpoint {
			appended.Add(1)
		}
	}
	durable.Observer.Store(&observe)
	executed := 0
	cfg.OnExperiment = func(_ ExperimentSummary, resumed bool) {
		if !resumed {
			executed++
		}
	}
	_, err = RunCampaign(cfg)
	durable.Observer.Store(nil)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 6 || replaced.Load() != 0 || appended.Load() != 6 {
		t.Errorf("the resume executed %d experiments, replaced its journal %d times and appended %d records; want 6, 0, 6",
			executed, replaced.Load(), appended.Load())
	}
	if after, _ := os.ReadFile(cfg.Checkpoint); !bytes.Equal(after, fresh) {
		t.Errorf("the seeded and resumed journal differs from a fresh one:\n got: %.300s\nwant: %.300s", after, fresh)
	}

	other := familyBase(12)
	other.Seed = 8
	old := bytes.Replace(short, []byte(`"version":2`), []byte(`"version":1`), 1)
	adaptive := familyBase(12)
	adaptive.TargetCI = 0.2
	for _, tc := range []struct {
		name    string
		cfg     CampaignConfig
		journal []byte
		ok      func(error) bool
	}{
		{"family", other, short, func(err error) bool { return errors.Is(err, ErrFingerprintMismatch) }},
		{"longer", familyBase(5), short, func(err error) bool { return errors.Is(err, ErrFingerprintMismatch) }},
		{"version", cfg, old, func(err error) bool { return err != nil && strings.Contains(err.Error(), "version 1") }},
		{"adaptive", adaptive, short, func(err error) bool { return errors.Is(err, ErrFingerprintMismatch) }},
	} {
		path := filepath.Join(dir, "refused-"+tc.name)
		if err := SeedJournal(path, tc.cfg, tc.journal); !tc.ok(err) {
			t.Errorf("%s: SeedJournal = %v", tc.name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: a refused seed left a journal (%v)", tc.name, err)
		}
	}
}

// TestRemoteResumesSeededJournal: a coordinated campaign seeded from a
// shorter one of its family resumes the seed's records from its own
// journal and hands its executor only the rest, in one batch; the result
// is the longer campaign's.
func TestRemoteResumesSeededJournal(t *testing.T) {
	short := familyBase(6)
	short.Checkpoint = filepath.Join(t.TempDir(), "journal")
	if _, err := RunCampaign(short); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(short.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cfg := familyBase(12)
	cfg.Checkpoint, cfg.Resume = filepath.Join(t.TempDir(), "seeded"), true
	if err := SeedJournal(cfg.Checkpoint, cfg, journal); err != nil {
		t.Fatal(err)
	}
	resumed := 0
	cfg.OnExperiment = func(_ ExperimentSummary, r bool) {
		if r {
			resumed++
		}
	}
	part, batches := runOnShards(t, cfg, 2, nil)
	if want := [][]int{{6, 7, 8, 9, 10, 11}}; resumed != 6 || !reflect.DeepEqual(batches, want) {
		t.Errorf("the seeded campaign resumed %d records and handed out %v, want 6 and %v", resumed, batches, want)
	}
	got, err := part.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint, cfg.Resume, cfg.OnExperiment = "", false, nil
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "seeded and remote", want, got)
}
