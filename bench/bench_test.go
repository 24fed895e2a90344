package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	faultprop "repro"
	"repro/internal/harness"
)

func TestMedianMinMaxQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if lo, hi := minMax(xs); lo != 1 || hi != 5 {
		t.Errorf("minMax = %v, %v, want 1, 5", lo, hi)
	}
	if got := quantile(xs, 0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestQuietSum(t *testing.T) {
	// Two pieces, three repetitions: the first piece was fastest in the
	// second repetition, the second piece in the third.
	reps := [][]float64{{3, 10}, {1, 12}, {2, 9}}
	if got := quietSum(reps); got != 10 {
		t.Errorf("quietSum = %v, want 1 + 9", got)
	}
	if got := quietSum(reps[:1]); got != 13 {
		t.Errorf("quietSum of one repetition = %v, want its sum, 13", got)
	}
	if !math.IsNaN(quietSum(nil)) || !math.IsNaN(quietSum([][]float64{{1, 2}, {1}})) {
		t.Error("quietSum without repetitions, or of ragged ones, should be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 50}, {12, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {52400, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "workload", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "execute", Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "resume", Parent: 0, Start: 70 * ms, End: 90 * ms},
		// Two concurrent children of execute overlap by 10 ms.
		{Name: "job", Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "job", Parent: 1, Start: 30 * ms, End: 55 * ms},
		{Name: "open", Parent: 0, Start: 95 * ms, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"workload": 30 * ms, // 100 - (50 + 20)
		"execute":  5 * ms,  // 50 - union(10..55)
		"resume":   20 * ms,
		"job":      55 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilAndChromeFile(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1, 0)) // a nil tracer records nothing
	if off.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
	tr := newTracer()
	root := tr.begin("root", -1, 1)
	tr.end(tr.begin("child", root, 1))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]int
		}
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0 || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

func TestStalledIDs(t *testing.T) {
	ms := time.Millisecond
	// One worker: the gap between successive completions.
	one := []completion{{0, 10 * ms}, {1, 14 * ms}, {2, 1500 * ms}, {3, 1504 * ms}}
	if got := stalledIDs(one, 1, 10*ms); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("one worker: stalled = %v, want [2]", got)
	}
	// Two workers: experiment 1 holds its worker for 60 s while the other
	// worker completes 2..5; no completion gap reaches a second until 1
	// itself completes, last and out of order.
	two := []completion{{0, 10 * ms}, {2, 20 * ms}, {3, 30 * ms}, {4, 40 * ms}, {5, 50 * ms}, {1, 60010 * ms}}
	if got := stalledIDs(two, 2, 10*ms); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("two workers: stalled = %v, want [1]", got)
	}
	// A long set-up is not a stall.
	if got := stalledIDs([]completion{{0, 3000 * ms}, {1, 3004 * ms}}, 1, 3000*ms); got != nil {
		t.Errorf("slow set-up: stalled = %v, want none", got)
	}
}

func TestCampaignSeed(t *testing.T) {
	if got := campaignSeed(defaultSeed); got != 2015 {
		t.Errorf("campaignSeed(%d) = %d, want 2015", defaultSeed, got)
	}
	seen := make(map[uint64]bool)
	for s := uint64(0); s < uint64(len(verifiedSeeds)); s++ {
		seen[campaignSeed(s)] = true
	}
	if len(seen) != len(verifiedSeeds) {
		t.Errorf("%d consecutive seeds reach %d of %d verified seeds", len(verifiedSeeds), len(seen), len(verifiedSeeds))
	}
}

// BENCHMARK.json must declare exactly what the binary prints.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, binary has %v", names, workloads)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the binary's default --seconds is %d", doc.RunSeconds, defaultSeconds)
	}
	for w, want := range map[string]int{wlLulesh: 4, wlStudy: 5, wlAMG: 1, wlService: 1} {
		if got := fullScale.repetitions(w, float64(doc.RunSeconds)); got != want {
			t.Errorf("run_seconds %d gives %d repetitions of %s, want %d", doc.RunSeconds, got, w, want)
		}
	}
	var e2e, layers []metricSpec
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
			continue
		}
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better, *m.Bound})
	}
	for _, m := range doc.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		layers = append(layers, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end\n %v\nbinary\n %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer differs from the binary's %d metrics", len(perLayer()))
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// miniScale drives the workloads' own code paths with tens of experiments
// and a handful of jobs.
var miniScale = scale{
	luleshRuns:      12,
	studyRuns:       map[string]int{"LULESH": 10, "LAMMPS": 10, "miniFE": 40, "AMG2013": 10, "MCB": 10},
	amgRuns:         12,
	jobRuns:         6,
	missJobs:        5,
	shardedJobs:     1,
	oracleRuns:      6,
	resumeSamples:   map[string]int{wlLulesh: 2, wlStudy: 2, wlAMG: 2, wlService: 2},
	setupSamples:    map[string]int{wlLulesh: 1, wlStudy: 1, wlAMG: 1, wlService: 1},
	ladderRuns:      8,
	adaptiveRuns:    40,
	deadlockTimeout: 100 * time.Millisecond,
	nominal:         fullScale.nominal,
}

func miniBench(t *testing.T, workload string, trace bool) *bench {
	return &bench{
		workload: workload, seed: defaultSeed, campaignSeed: campaignSeed(defaultSeed),
		// Two repetitions of a campaign workload, one round of jobs.
		seconds: 7, trace: trace, sc: miniScale, outDir: t.TempDir(),
		coldSetup: func(workload string, seed uint64, dir string) (float64, error) {
			return setupOnce(workload, campaignSeed(seed), miniScale, dir)
		},
	}
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runMini(t *testing.T, b *bench, specs []metricSpec) resultLine {
	t.Helper()
	var out bytes.Buffer
	line, err := b.run(&out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", b.workload, err, out.String())
	}
	var res resultLine
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", b.workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	var got, want []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	for _, s := range specs {
		want = append(want, s.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s prints metrics %v, want %v", b.workload, got, want)
	}
	return res
}

func TestMiniatureEndToEnd(t *testing.T) {
	for _, w := range workloads {
		b := miniBench(t, w, false)
		res := runMini(t, b, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s %s = %v, an end-to-end metric is never 0", w, name, m.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(b.outDir, w+".trace0.json")); err != nil {
			t.Errorf("%s: no record written: %v", w, err)
		}
		if left, _ := filepath.Glob(filepath.Join(b.outDir, "run-*")); len(left) > 0 {
			t.Errorf("%s left %v behind", w, left)
		}
	}
}

func TestMiniatureTraced(t *testing.T) {
	b := miniBench(t, wlAMG, true)
	b.seconds = 0.2 // 2 ms per ladder rung
	runMini(t, b, perLayer())
	if _, err := os.Stat(filepath.Join(b.outDir, "trace."+wlAMG+".json")); err != nil {
		t.Errorf("no trace written: %v", err)
	}
	self := selfTimes(b.tracer.snapshot())
	for _, name := range []string{wlAMG, "repetition", "execute", "resume", "campaign.AMG2013", "ladder", "rung.service"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no span named %s", name)
		}
	}

	// The traced pass of service-jobs, without a second ladder.
	b = miniBench(t, wlService, true)
	b.tmp = t.TempDir()
	b.report = newReport(wlService, new(bytes.Buffer))
	b.tracer = newTracer()
	if err := b.traceService(); err != nil {
		t.Fatal(err)
	}
	if b.report.failed != 0 || b.report.incorrect {
		t.Errorf("traced service-jobs: %d failed, notes %v", b.report.failed, b.report.notes)
	}
	self = selfTimes(b.tracer.snapshot())
	for _, name := range []string{"job", "submit", "watch", "result", "miss", "hit", "sharded"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no span named %s", name)
		}
	}
}

func TestSameResult(t *testing.T) {
	base := func() *faultprop.CampaignResult {
		return &faultprop.CampaignResult{
			App: "LULESH", Runs: 2,
			Experiments: []harness.ExperimentSummary{
				{ID: 0, Outcome: faultprop.Vanished, RanksContaminated: 1},
				{ID: 1, Outcome: faultprop.Crashed, RanksContaminated: 8, TotalPeakCML: 9},
			},
			StructTotals: map[string]int{"e": 9},
		}
	}
	marshal := func(r *faultprop.CampaignResult) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := marshal(base())
	if raced, err := sameResult(ref, marshal(base())); err != nil || raced != nil {
		t.Errorf("identical results: raced %v, err %v", raced, err)
	}
	// A crashed experiment whose peers were cut down at another moment.
	r := base()
	r.Experiments[1].RanksContaminated, r.Experiments[1].TotalPeakCML = 7, 8
	r.StructTotals["e"] = 8
	if raced, err := sameResult(ref, marshal(r)); err != nil || !reflect.DeepEqual(raced, []int{1}) {
		t.Errorf("abort race: raced %v, err %v, want [1]", raced, err)
	}
	r = base()
	r.Experiments[0].RanksContaminated = 2
	if _, err := sameResult(ref, marshal(r)); err == nil {
		t.Error("a difference in a vanished experiment passed")
	}
	r = base()
	r.Experiments[1].Outcome = faultprop.WrongOutput
	if _, err := sameResult(ref, marshal(r)); err == nil {
		t.Error("a difference in classification passed")
	}
	r = base()
	r.StructTotals["e"] = 1
	if _, err := sameResult(ref, marshal(r)); err == nil {
		t.Error("a difference in the aggregates alone passed")
	}
}
