package harness

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// goldenCall is one fault-free execution through the pack's seam: whether
// it was asked to capture cuts and whether it recorded the site map.
type goldenCall struct{ captures, sites bool }

// goldenLog records the fault-free executions campaigns start.
type goldenLog struct {
	mu    sync.Mutex
	calls []goldenCall
}

func (l *goldenLog) add(c goldenCall) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, c)
}

// Load returns the number of executions logged so far.
func (l *goldenLog) Load() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int32(len(l.calls))
}

func (l *goldenLog) all() []goldenCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]goldenCall(nil), l.calls...)
}

// countGoldens wraps the coreGoldenCapture indirection, the pack's one
// kind of fault-free execution, and logs the executions campaigns start
// until the test ends.
func countGoldens(t *testing.T) *goldenLog {
	t.Helper()
	l := &goldenLog{}
	orig := coreGoldenCapture
	coreGoldenCapture = func(prog *ir.Program, cfg core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		l.add(goldenCall{captures: len(seqs) > 0, sites: sites})
		return orig(prog, cfg, seqs, sites)
	}
	t.Cleanup(func() { coreGoldenCapture = orig })
	return l
}

func lookupPack(key packKey) *snapshotPack {
	packMu.Lock()
	defer packMu.Unlock()
	return packs[key]
}

// TestSnapshotPackSharedAcrossCampaigns checks that campaigns over one
// configuration share one pack whatever their Snapshots setting: a
// Snapshots: 0 campaign sets the pack up with a single fault-free execution
// that captures every cut, yet forks and exits nothing; a Snapshots: 3
// campaign after it forks from those captures with no further fault-free
// execution — and both produce byte-identical studies.
func TestSnapshotPackSharedAcrossCampaigns(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	goldens := countGoldens(t)
	runs := record(t, false)
	app := apps.All()[0]
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 10, Seed: 77}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	first, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := packKey{app: app.Name(), params: cfg.Params, sample: cfg.SampleEvery}
	p := lookupPack(key)
	if p == nil {
		t.Fatal("campaign left no pack behind")
	}
	if !p.ready || p.golden.Err != nil || len(p.golden.Ranks) != cfg.Params.Ranks || len(p.snaps) == 0 {
		t.Fatalf("pack not set up: ready=%v golden.Err=%v ranks=%d snaps=%d",
			p.ready, p.golden.Err, len(p.golden.Ranks), len(p.snaps))
	}
	if c := runs.counts; c.forked != 0 || c.exited != 0 {
		t.Fatalf("Snapshots: 0 campaign forked %d experiments and exited %d", c.forked, c.exited)
	}
	snapsBefore := &p.snaps[0]

	cfg.Snapshots = 3
	second, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lookupPack(key) != p {
		t.Fatal("second campaign built a fresh pack instead of sharing")
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("fault-free program executed %d times over two campaigns, want 1", n)
	}
	if &p.snaps[0] != snapsBefore {
		t.Error("second campaign recaptured the golden execution")
	}
	if runs.counts.forked == 0 {
		t.Fatal("Snapshots: 3 campaign forked no experiment")
	}
	assertSameStudy(t, "Snapshots: 3 after Snapshots: 0 on one pack", first, second)
}

// TestPackGoldenMatchesRun: the pack's capture run is the campaign's
// reference run, so its golden outcome must equal a plain fault-free
// core.Run in every result field — outputs, cycles, iterations, site
// counts and the per-rank results that exit splicing reads — and it must
// hold one capture per quiesce cut, each at the cut core.RunGoldenProfile
// reports.
func TestPackGoldenMatchesRun(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			params := app.TestParams()
			params.Ranks = ranks
			cfg := CampaignConfig{App: app, Params: params, Sampling: Sampling{Runs: 1}, Execution: Execution{SampleEvery: 64}}
			p, err := packFor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc := core.RunConfig{Ranks: ranks, SampleEvery: cfg.SampleEvery}
			want := core.Run(p.inst, rc)
			got := p.golden
			// Telemetry, not results: backing depends on the bundle's history.
			want.BackedBytes, got.BackedBytes = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s r%d: pack golden outcome differs from core.Run:\n got %+v\nwant %+v",
					app.Name(), ranks, got, want)
			}
			_, cuts := core.RunGoldenProfile(p.inst, rc)
			if len(cuts) == 0 || len(p.snaps) != len(cuts) {
				t.Errorf("%s r%d: pack holds %d captures of %d quiesce cuts", app.Name(), ranks, len(p.snaps), len(cuts))
				continue
			}
			for i, cs := range p.snaps {
				if !reflect.DeepEqual(cs.Cut, cuts[i]) {
					t.Errorf("%s r%d: capture %d at cut %+v, profile has %+v", app.Name(), ranks, i, cs.Cut, cuts[i])
				}
			}
		}
	}
}

// TestPackKeepsFirstMaxCuts raises LULESH's step count until its golden
// execution passes more quiesce points than maxCuts: the pack keeps the
// first maxCuts, and a campaign forking from them stays byte-identical to
// re-execution.
func TestPackKeepsFirstMaxCuts(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.ByName("LULESH")
	params := app.TestParams()
	var cuts []core.SiteCut
	for len(cuts) <= maxCuts {
		params.Steps *= 2
		inst := buildInstrumented(t, app, params)
		var out core.RunOutcome
		out, cuts = core.RunGoldenProfile(inst, core.RunConfig{Ranks: params.Ranks, SampleEvery: 64})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	cfg := CampaignConfig{App: app, Params: params, Sampling: Sampling{Runs: 20, Seed: 2015}, Execution: Execution{SampleEvery: 64, Workers: 1}}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := lookupPack(packKey{app: app.Name(), params: params, sample: cfg.SampleEvery})
	if len(p.snaps) != maxCuts {
		t.Fatalf("pack holds %d captures of %d cuts, want the first %d", len(p.snaps), len(cuts), maxCuts)
	}
	for i, cs := range p.snaps {
		if !reflect.DeepEqual(cs.Cut, cuts[i]) {
			t.Fatalf("capture %d at cut %+v, want %+v", i, cs.Cut, cuts[i])
		}
	}
	runs := record(t, false)
	cfg.Snapshots = 64
	got, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runs.counts.forked == 0 {
		t.Error("campaign never forked from a capture")
	}
	assertSameStudy(t, "first maxCuts captured vs re-execution", want, got)
}

// TestPackConcurrentFirstUse starts several campaigns over one fresh
// configuration at once: set-up runs once under the pack's own mutex and
// every campaign sees the same golden state.
func TestPackConcurrentFirstUse(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	goldens := countGoldens(t)
	app := apps.All()[0]
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 6, Seed: 5}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	results := make([]*CampaignResult, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Snapshots = i // 0 and capturing campaigns interleave on one pack
			results[i], errs[i] = RunCampaign(c)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("golden executed %d times for one configuration, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		assertSameStudy(t, fmt.Sprintf("concurrent campaign %d", i), results[0], results[i])
	}
}

// TestPackSetupFailureNotCached: a failed golden run is returned with the
// campaign's usual wrapping and leaves nothing behind, so the next campaign
// over the configuration sets the pack up afresh.
func TestPackSetupFailureNotCached(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.All()[0]
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 2, Seed: 1}, Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	orig := coreGoldenCapture
	coreGoldenCapture = func(prog *ir.Program, rc core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		out, _, _, _ := orig(prog, rc, seqs, sites)
		out.Err = errors.New("synthetic golden failure")
		return out, nil, nil, nil
	}
	_, err := RunCampaign(cfg)
	coreGoldenCapture = orig
	if want := "harness: golden run of " + app.Name() + " failed: synthetic golden failure"; err == nil || err.Error() != want {
		t.Fatalf("campaign returned %v, want %q", err, want)
	}
	packMu.Lock()
	n, lru := len(packs), len(packLRU)
	packMu.Unlock()
	if n != 0 || lru != 0 {
		t.Fatalf("failed set-up left %d packs, %d LRU entries behind", n, lru)
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatalf("campaign after a failed set-up: %v", err)
	}
}

// TestPackCachesEmptyCutList: an execution without quiesce points is a
// valid golden run. The pack keeps its empty capture list instead of
// re-executing on every campaign, and every experiment runs from step 0.
func TestPackCachesEmptyCutList(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	runs := record(t, false)
	app := apps.All()[0]
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 4, Seed: 9}, Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 3},
	}
	orig := coreGoldenCapture
	coreGoldenCapture = func(prog *ir.Program, rc core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		out, _, runs, _ := orig(prog, rc, seqs, sites)
		return out, nil, runs, nil
	}
	t.Cleanup(func() { coreGoldenCapture = orig })
	goldens := countGoldens(t)
	for i := 0; i < 2; i++ {
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("golden executed %d times over two campaigns, want 1", n)
	}
	if n := runs.counts.forked; n != 0 {
		t.Errorf("%d experiments forked without a single cut", n)
	}
}

// TestPackLRUEviction fills the registry past its capacity and checks
// the oldest configuration is evicted.
func TestPackLRUEviction(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.All()[0]
	base := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 2, Seed: 1}, Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 1},
	}
	firstKey := packKey{app: app.Name(), params: base.Params, sample: base.SampleEvery}
	for i := 0; i <= maxPacks; i++ {
		cfg := base
		cfg.SampleEvery = uint64(64 + i)
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	packMu.Lock()
	defer packMu.Unlock()
	if len(packs) != maxPacks {
		t.Fatalf("registry holds %d packs, want %d", len(packs), maxPacks)
	}
	if _, ok := packs[firstKey]; ok {
		t.Error("least recently used pack survived eviction")
	}
}

// TestSiteProfileOncePerPack: everything that reads the site map of one
// configuration — a Sites+Strata campaign, its kill and resume, a 3-shard
// run of it, a plain campaign, an adaptive campaign and the explicit-ID
// round shards a coordinator's planner dispatches for it — shares the
// pack's one fault-free execution, which recorded the map because the
// first campaign needed it, and each variant is byte-identical to its
// unsharded run.
func TestSiteProfileOncePerPack(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	goldens := countGoldens(t)
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App:       app,
		Params:    app.TestParams(),
		Sampling:  Sampling{Runs: 30, Seed: 2015, Strata: 2, Sites: true},
		Execution: Execution{SampleEvery: 64, Workers: 2, Snapshots: 2},
	}
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Strata) == 0 || len(full.Sites) == 0 {
		t.Fatalf("campaign carries %d strata and %d sites; the site map was never read",
			len(full.Strata), len(full.Sites))
	}

	killed := cfg
	killed.Checkpoint = t.TempDir() + "/sites.ckpt.jsonl"
	killed.StopAfter = 10
	if _, err := RunCampaign(killed); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("killed campaign returned %v, want ErrInterrupted", err)
	}
	resume := killed
	resume.StopAfter = 0
	resume.Resume = true
	resumed, err := RunCampaign(resume)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "resumed", full, resumed)

	specs, err := PlanShards(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "3 shards", full, runShardedVariant(t, cfg, specs, []int{2, 0, 1}))

	plain := cfg
	plain.Strata, plain.Sites = 0, false
	if _, err := RunCampaign(plain); err != nil {
		t.Fatal(err)
	}

	adaptive := cfg
	adaptive.TargetCI = 0.25
	local, err := RunCampaign(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := runOnShards(t, adaptive, 3, nil)
	coordinated, err := part.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "adaptive round shards", local, coordinated)

	if got, want := goldens.all(), []goldenCall{{captures: true, sites: true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("fault-free executions over one configuration: %+v, want %+v", got, want)
	}
}

// TestSiteMapAfterPlainCampaign: a pack set up by a plain campaign holds
// no site map, so a per-site campaign after it records the map in one
// more fault-free execution, which captures nothing; a third campaign
// reads the map the second recorded.
func TestSiteMapAfterPlainCampaign(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App:       app,
		Params:    app.TestParams(),
		Sampling:  Sampling{Runs: 12, Seed: 2015, Sites: true},
		Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 2},
	}
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resetPacks()
	goldens := countGoldens(t)
	plain := cfg
	plain.Sites = false
	for _, c := range []CampaignConfig{plain, cfg} {
		if _, err := RunCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, "site map recorded after a plain campaign", want, got)
	if got, want := goldens.all(), []goldenCall{{captures: true}, {sites: true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("fault-free executions: %+v, want %+v", got, want)
	}
}

// TestSiteProfileFailureNotCached: a failed site-map recording is returned
// with the campaign's usual wrapping and is not kept, so the next campaign
// over the configuration records again — on the same pack, whose golden
// set-up did succeed.
func TestSiteProfileFailureNotCached(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	goldens := countGoldens(t)
	app := apps.NewHydro()
	cfg := CampaignConfig{
		App:       app,
		Params:    app.TestParams(),
		Sampling:  Sampling{Runs: 4, Seed: 1},
		Execution: Execution{SampleEvery: 64, Workers: 1},
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Sites = true
	orig := coreGoldenCapture
	coreGoldenCapture = func(prog *ir.Program, rc core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		out, _, _, _ := orig(prog, rc, seqs, sites)
		out.Err = errors.New("synthetic profile failure")
		return out, nil, nil, nil
	}
	_, err := RunCampaign(cfg)
	coreGoldenCapture = orig
	if want := "harness: site-class profile of " + app.Name() + " failed: synthetic profile failure"; err == nil || err.Error() != want {
		t.Fatalf("campaign returned %v, want %q", err, want)
	}
	for i := 0; i < 2; i++ {
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatalf("campaign %d after a failed recording: %v", i, err)
		}
	}
	want := []goldenCall{{captures: true}, {sites: true}, {sites: true}}
	if got := goldens.all(); !reflect.DeepEqual(got, want) {
		t.Errorf("fault-free executions: %+v, want %+v (set-up, the failed recording, one retry, then cached; "+
			"a failed recording must not drop the pack)", got, want)
	}
}

// TestStaticSiteCountMatchesTransform: the pack's static site table has one
// entry per fim_inj instruction of the instrumented program, with and
// without protection.
func TestStaticSiteCountMatchesTransform(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	for _, app := range apps.All() {
		cfg := CampaignConfig{App: app, Params: app.TestParams(), Sampling: Sampling{Runs: 1}}
		want := transform.CountStaticSites(buildInstrumented(t, app, cfg.Params))
		for _, protect := range [][]int{nil, {0, 1}} {
			cfg.Protect = protect
			if got, err := StaticSiteCount(cfg); err != nil || got != want {
				t.Errorf("%s protect %v: StaticSiteCount = %d, %v; the program has %d fim_inj sites",
					app.Name(), protect, got, err, want)
			}
		}
	}
}
