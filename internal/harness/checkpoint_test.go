package harness

import (
	"bytes"
	"os"
	"testing"
)

// planLine is a record of the kind older builds journaled once per
// adaptive round: the round's decision, which every reader skips.
const planLine = `{"kind":"plan","round":1,"targetCI":0.25,"allocs":[{"stratum":3,"label":"fp/2","ids":[3,4,9]}],"run":[3,4,9]}` + "\n"

// withPlanLines returns journal as an older build wrote it: a plan line
// after its header and after every seventh record but the last.
func withPlanLines(journal []byte) []byte {
	lines := journalLines(journal)
	var out []byte
	for i, line := range lines {
		out = append(append(out, line...), '\n')
		if i%7 == 0 && i < len(lines)-1 {
			out = append(out, planLine...)
		}
	}
	return out
}

// adaptiveJournal runs cfg, an adaptive campaign, journaled to a fresh
// file, and returns its result and journal. The journal holds the header
// and experiment records alone.
func adaptiveJournal(t *testing.T, cfg CampaignConfig) (*CampaignResult, []byte) {
	t.Helper()
	cfg.Checkpoint = t.TempDir() + "/adaptive.ckpt.jsonl"
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range journalLines(journal)[1:] {
		if kind := kindOf(line); kind != "exp" {
			t.Fatalf("adaptive journal line %d is a %q record", i+2, kind)
		}
	}
	return res, journal
}

// TestReplayJournalMatchesReadJournal: event replay and resume decode
// through one scanner and codec, so over any journal — whole, carrying
// an older build's interleaved plan records, or cut anywhere in its tail —
// ReplayJournal yields an event for exactly the records readJournal
// yields, in order, with the same six fields.
func TestReplayJournalMatchesReadJournal(t *testing.T) {
	cfg := adaptiveConfig(60, 0.25)
	cfg.Sites = true
	_, fresh := adaptiveJournal(t, cfg)
	whole := withPlanLines(fresh)
	ck := t.TempDir() + "/adaptive.ckpt.jsonl"
	if err := os.WriteFile(ck, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, err := readHeader(ck)
	if err != nil || hdr.Fingerprint == "" || hdr.Runs != 60 {
		t.Fatalf("journal header %+v: %v", hdr, err)
	}

	lastLine := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	for _, cut := range []struct {
		name string
		n    int
	}{
		{"whole", len(whole)},
		{"last-newline-gone", len(whole) - 1},
		{"mid-last-record", (lastLine + len(whole)) / 2},
		{"one-byte-of-last", lastLine + 1},
		{"mid-journal", len(whole) / 2},
	} {
		n := cut.n
		t.Run(cut.name, func(t *testing.T) {
			path := t.TempDir() + "/cut.jsonl"
			if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			recs, keep, _, err := readJournal(path, hdr)
			if err != nil || keep == 0 || len(recs) == 0 {
				t.Fatalf("readJournal: %d records, keep=%d, err=%v", len(recs), keep, err)
			}
			var events []JournalEvent
			if err := ReplayJournal(bytes.NewReader(whole[:n]), func(ev JournalEvent) bool {
				events = append(events, ev)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(events) != len(recs) {
				t.Fatalf("ReplayJournal gave %d events, readJournal %d records", len(events), len(recs))
			}
			for i, rec := range recs {
				sum := rec.Sum
				want := JournalEvent{ID: sum.ID, Outcome: sum.Outcome, InjRank: sum.InjRank,
					InjCycle: sum.InjCycle, Fired: sum.Fired, MaxCML: sum.MaxCML}
				if events[i] != want {
					t.Errorf("record %d: event %+v, record says %+v", i, events[i], want)
				}
			}
		})
	}

	// fn returning false ends the replay there.
	n := 0
	if err := ReplayJournal(bytes.NewReader(whole), func(JournalEvent) bool { n++; return n < 3 }); err != nil || n != 3 {
		t.Errorf("replay stopped after %d events (err %v), want 3", n, err)
	}
}

// TestResumeFromJournalWithPlanLines: a journal of an adaptive campaign
// killed under an older build, its plan lines included, resumes to the
// bytes of an uninterrupted run, and a stream replays every experiment of
// it.
func TestResumeFromJournalWithPlanLines(t *testing.T) {
	cfg := adaptiveConfig(60, 0.25)
	cfg.Workers = 1
	want, fresh := adaptiveJournal(t, cfg)
	old := withPlanLines(fresh)
	lines := journalLines(fresh)
	n := 0
	if err := ReplayJournal(bytes.NewReader(old), func(JournalEvent) bool { n++; return true }); err != nil || n != len(lines)-1 {
		t.Errorf("ReplayJournal gave %d events (err %v), want the journal's %d experiments", n, err, len(lines)-1)
	}

	// Killed mid-campaign: the first half of the old journal's lines.
	cut := 0
	for i := 0; i < len(lines)/2; i++ {
		cut = bytes.IndexByte(old[cut:], '\n') + cut + 1
	}
	cfg.Checkpoint = t.TempDir() + "/old.ckpt.jsonl"
	if err := os.WriteFile(cfg.Checkpoint, old[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old[:cut], []byte(`{"kind":"plan"`)) {
		t.Fatal("the cut journal holds no plan line")
	}
	cfg.Resume = true
	prog := &Progress{}
	cfg.Progress = prog
	got, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := prog.Snapshot().Resumed; r == 0 || r >= len(lines)-1 {
		t.Errorf("resumed %d experiments, want some of the %d", r, len(lines)-1)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("the campaign resumed from a journal with plan lines differs from an uninterrupted run")
	}
}
