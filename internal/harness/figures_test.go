package harness

import (
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/model"
	"repro/internal/trace"
)

func fakeResult(app string) *CampaignResult {
	r := &CampaignResult{
		App:            app,
		Params:         apps.Params{Ranks: 4, Size: 8, Steps: 10},
		Runs:           10,
		Golden:         classify.Golden{Cycles: 10000},
		GoldenSites:    []uint64{100, 100, 100, 100},
		AllocatedWords: 400,
	}
	outcomes := []classify.Outcome{
		classify.Vanished, classify.OutputNotAffected, classify.OutputNotAffected,
		classify.WrongOutput, classify.ProlongedExecution, classify.Crashed,
	}
	for i, o := range outcomes {
		r.Tally.Add(o)
		r.Experiments = append(r.Experiments, ExperimentSummary{
			ID: i, Outcome: o, Fired: true,
			InjCycle: uint64(1000 * i), ContamPct: float64(5 * i),
		})
	}
	r.Profiles = []Profile{{
		ID: 1, Outcome: classify.OutputNotAffected,
		Points: []trace.Point{{Cycles: 100, CML: 1}, {Cycles: 200, CML: 5}, {Cycles: 300, CML: 9}},
	}}
	r.BestSpread = SpreadSeries{ID: 1, Points: []trace.SpreadPoint{
		{Time: 100, Ranks: 1}, {Time: 300, Ranks: 2}, {Time: 500, Ranks: 4},
	}}
	r.Model = model.AppModel{App: app, FPS: 123456, StdDev: 999,
		Fits: []model.RunFit{{A: 123456}}}
	return r
}

func TestFormatFig5ContainsHistogram(t *testing.T) {
	text := FormatFig5(fakeResult("LULESH"))
	for _, want := range []string{"Figure 5", "chi2", "LULESH"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestFormatFig6Percentages(t *testing.T) {
	text := FormatFig6([]*CampaignResult{fakeResult("APPX")})
	if !strings.Contains(text, "APPX") {
		t.Fatalf("missing app name:\n%s", text)
	}
	// 3 CO of 6 runs = 50%.
	if !strings.Contains(text, "50.0") {
		t.Errorf("CO%% not rendered:\n%s", text)
	}
}

func TestFormatFig7RendersProfiles(t *testing.T) {
	text := FormatFig7(fakeResult("A"))
	if !strings.Contains(text, "run 1 [ONA]") {
		t.Errorf("profile header missing:\n%s", text)
	}
	empty := fakeResult("B")
	empty.Profiles = nil
	if !strings.Contains(FormatFig7(empty), "no propagating runs") {
		t.Error("empty profile case not handled")
	}
}

func TestFormatFig7fStats(t *testing.T) {
	text := FormatFig7f([]*CampaignResult{fakeResult("A")})
	if !strings.Contains(text, "25.00") { // max ContamPct = 5*5
		t.Errorf("max%% missing:\n%s", text)
	}
}

func TestFormatFig8Spread(t *testing.T) {
	text := FormatFig8([]*CampaignResult{fakeResult("A")})
	if !strings.Contains(text, "final: 4/4 ranks") {
		t.Errorf("spread not rendered:\n%s", text)
	}
	none := fakeResult("B")
	none.BestSpread = SpreadSeries{}
	if !strings.Contains(FormatFig8([]*CampaignResult{none}), "no cross-rank contamination") {
		t.Error("empty spread case not handled")
	}
}

func TestFormatTable2AndSortedFPS(t *testing.T) {
	a := fakeResult("A")
	b := fakeResult("B")
	b.Model.FPS = 999999999
	text := FormatTable2([]*CampaignResult{a, b})
	if !strings.Contains(text, "Table 2") || !strings.Contains(text, "A") {
		t.Errorf("table malformed:\n%s", text)
	}
	order := SortedFPS([]*CampaignResult{a, b})
	if order[0] != "B" || order[1] != "A" {
		t.Errorf("SortedFPS = %v", order)
	}
}

func TestFormatCOBreakdown(t *testing.T) {
	text := FormatCOBreakdown([]*CampaignResult{fakeResult("A")})
	// 2 ONA of 3 CO runs = 66.7%.
	if !strings.Contains(text, "66.7%") {
		t.Errorf("ONA share missing:\n%s", text)
	}
}

func TestFormatTable1MatchesPaper(t *testing.T) {
	text, err := FormatTable1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"b = a + 5", "Yes", "No", "24", "22"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
}

func TestDownsample(t *testing.T) {
	pts := make([]trace.Point, 100)
	for i := range pts {
		pts[i] = trace.Point{Cycles: int64(i)}
	}
	ds := downsample(pts, 10)
	if len(ds) != 10 {
		t.Fatalf("len = %d", len(ds))
	}
	if ds[0].Cycles != 0 || ds[9].Cycles != 99 {
		t.Errorf("endpoints not preserved: %v ... %v", ds[0], ds[9])
	}
	short := pts[:5]
	if len(downsample(short, 10)) != 5 {
		t.Error("short series must pass through")
	}
}

func TestSaveLoadResultsRoundTrip(t *testing.T) {
	results := []*CampaignResult{fakeResult("A"), fakeResult("B")}
	results[0].StructTotals = map[string]int{"e": 5, "(heap)": 2}
	for _, path := range []string{
		t.TempDir() + "/r.json",
		t.TempDir() + "/r.json.gz",
	} {
		if err := SaveResults(path, results); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := LoadResults(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != 2 || got[0].App != "A" || got[1].App != "B" {
			t.Fatalf("%s: loaded %+v", path, got)
		}
		if got[0].Tally.Total != results[0].Tally.Total {
			t.Errorf("%s: tally lost", path)
		}
		if got[0].StructTotals["e"] != 5 {
			t.Errorf("%s: struct totals lost", path)
		}
		if len(got[0].Profiles) != 1 || got[0].Profiles[0].Points[2].CML != 9 {
			t.Errorf("%s: profiles lost", path)
		}
	}
}

func TestLoadResultsErrors(t *testing.T) {
	if _, err := LoadResults("/nonexistent/x.json"); err == nil {
		t.Error("missing file accepted")
	}
	p := t.TempDir() + "/bad.json"
	os.WriteFile(p, []byte("{nope"), 0o644)
	if _, err := LoadResults(p); err == nil {
		t.Error("corrupt file accepted")
	}
	// Wrong version.
	p2 := t.TempDir() + "/v9.json"
	os.WriteFile(p2, []byte(`{"version":9,"results":[]}`), 0o644)
	if _, err := LoadResults(p2); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestFormatStructVulnerability(t *testing.T) {
	r := fakeResult("A")
	r.StructTotals = map[string]int{"e": 30, "p": 10, "(heap)": 60}
	text := FormatStructVulnerability([]*CampaignResult{r})
	if !strings.Contains(text, "(heap)=60 (60%)") {
		t.Errorf("breakdown missing:\n%s", text)
	}
	empty := fakeResult("B")
	empty.StructTotals = map[string]int{}
	if !strings.Contains(FormatStructVulnerability([]*CampaignResult{empty}), "(none)") {
		t.Error("empty case not handled")
	}
}
