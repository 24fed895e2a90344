package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresRendersWhatCampaignPrinted: figures -in prints, line for
// line, what campaign printed for the results it saved, less the # header
// lines and the blank line that ends them, the recovery-policy reports and
// the "results saved" line — the strata and per-site tables of a
// two-app stratified per-site campaign included.
func TestFiguresRendersWhatCampaignPrinted(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	campaign := filepath.Join(dir, "campaign")
	if out, err := exec.Command(gobin, "build", "-o", campaign, "repro/cmd/campaign").CombinedOutput(); err != nil {
		t.Fatalf("build campaign: %v\n%s", err, out)
	}
	results := filepath.Join(dir, "results.json")
	out, err := exec.Command(campaign, "-apps", "LULESH,miniFE", "-scale", "test", "-runs", "24", "-seed", "7",
		"-sites", "-strata", "4", "-workers", "2", "-json", results).Output()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	var want []string
	inReport := false
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "#"), strings.HasPrefix(line, "results saved to "):
		case strings.HasPrefix(line, "Recovery policy evaluation — "):
			inReport = true
		case inReport:
			inReport = line != ""
		default:
			want = append(want, line)
		}
	}
	if len(want) == 0 || want[0] != "" {
		t.Fatalf("campaign printed no blank line after its headers:\n%s", out)
	}
	wantText := strings.Join(want[1:], "\n")

	var got, notes bytes.Buffer
	if err := run(&got, &notes, results); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantText {
		t.Errorf("figures printed\n%s\ncampaign printed\n%s", got.String(), wantText)
	}
	for _, exhibit := range []string{"Table 1 — ", "Figure 5 — ", "Per-stratum vulnerability — LULESH",
		"Per-stratum vulnerability — miniFE", "Per-site vulnerability — LULESH", "Per-site vulnerability — miniFE",
		"FPS ordering"} {
		if !strings.Contains(got.String(), exhibit) {
			t.Errorf("figures printed no %q", exhibit)
		}
	}
	if notes.Len() != 0 {
		t.Errorf("figures noted %q for a campaign that kept every summary", notes.String())
	}
}
