package harness

import (
	"bytes"
	"os"
	"testing"
)

// TestReplayJournalMatchesReadJournal: event replay and resume decode
// through one scanner and codec, so over any journal — whole, carrying
// interleaved plan records, or cut anywhere in its tail — ReplayJournal
// yields an event for exactly the records readJournal yields, in order,
// with the same six fields.
func TestReplayJournalMatchesReadJournal(t *testing.T) {
	ck := t.TempDir() + "/adaptive.ckpt.jsonl"
	cfg := adaptiveConfig(60, 0.25)
	cfg.Sites = true
	cfg.Checkpoint = ck
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(whole, []byte(`{"kind":"plan"`)) {
		t.Fatal("the adaptive journal interleaves no plan record")
	}
	fp, err := journalHeaderFP(ck)
	if err != nil || fp == "" {
		t.Fatalf("journal header fingerprint %q: %v", fp, err)
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
			recs, found, err := readJournal(path, fp)
			if err != nil || !found || len(recs) == 0 {
				t.Fatalf("readJournal: %d records, found=%v, err=%v", len(recs), found, err)
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
