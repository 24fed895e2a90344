package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
)

// countGoldens wraps the coreGoldenProfile indirection and counts the
// golden executions campaigns start until the test ends.
func countGoldens(t *testing.T) *atomic.Int32 {
	t.Helper()
	n := new(atomic.Int32)
	orig := coreGoldenProfile
	coreGoldenProfile = func(prog *ir.Program, cfg core.RunConfig) (core.RunOutcome, []core.SiteCut) {
		n.Add(1)
		return orig(prog, cfg)
	}
	t.Cleanup(func() { coreGoldenProfile = orig })
	return n
}

func lookupPack(key packKey) *snapshotPack {
	packMu.Lock()
	defer packMu.Unlock()
	return packs[key]
}

// TestSnapshotPackSharedAcrossCampaigns checks that campaigns over one
// configuration share one pack whatever their capture budget: a
// Snapshots: 0 campaign sets the pack up with a single fault-free
// execution (golden outcome and quiesce profile together), a Snapshots: 3
// campaign after it adds only the capture run, a third captures nothing —
// and all three produce byte-identical studies.
func TestSnapshotPackSharedAcrossCampaigns(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	goldens := countGoldens(t)
	resumes := countResumes(t)
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
	if !p.ready || p.golden.Err != nil || len(p.golden.Ranks) != cfg.Params.Ranks || len(p.cuts) == 0 {
		t.Fatalf("pack not set up: ready=%v golden.Err=%v ranks=%d cuts=%d",
			p.ready, p.golden.Err, len(p.golden.Ranks), len(p.cuts))
	}
	if len(p.snaps) != 0 || *resumes != 0 {
		t.Fatalf("Snapshots: 0 campaign captured %d snapshots and forked %d experiments", len(p.snaps), *resumes)
	}
	cutsBefore := &p.cuts[0]

	cfg.Snapshots = 3
	second, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lookupPack(key) != p {
		t.Fatal("second campaign built a fresh pack instead of sharing")
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("fault-free program executed %d times before capture, want 1", n)
	}
	if &p.cuts[0] != cutsBefore {
		t.Error("second campaign re-profiled the golden execution")
	}
	if len(p.snaps) == 0 || *resumes == 0 {
		t.Fatalf("Snapshots: 3 campaign captured %d snapshots and forked %d experiments", len(p.snaps), *resumes)
	}
	snapsBefore := len(p.snaps)

	third, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.snaps) != snapsBefore {
		t.Errorf("third campaign over identical pending IDs recaptured: %d snaps, had %d",
			len(p.snaps), snapsBefore)
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("golden executed %d times across three campaigns, want 1", n)
	}
	assertStudyIdentical(t, "Snapshots: 3 after Snapshots: 0 on one pack", first, second)
	assertStudyIdentical(t, "pack-shared third campaign", first, third)
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
		assertStudyIdentical(t, fmt.Sprintf("concurrent campaign %d", i), results[0], results[i])
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
	orig := coreGoldenProfile
	coreGoldenProfile = func(prog *ir.Program, rc core.RunConfig) (core.RunOutcome, []core.SiteCut) {
		out, _ := orig(prog, rc)
		out.Err = errors.New("synthetic golden failure")
		return out, nil
	}
	_, err := RunCampaign(cfg)
	coreGoldenProfile = orig
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
// valid profile. The pack keeps its empty cut list instead of re-profiling
// on every campaign, and every experiment runs from step 0.
func TestPackCachesEmptyCutList(t *testing.T) {
	resetPacks()
	t.Cleanup(resetPacks)
	resumes := countResumes(t)
	app := apps.All()[0]
	cfg := CampaignConfig{
		App:    app,
		Params: app.TestParams(), Sampling: Sampling{Runs: 4, Seed: 9}, Execution: Execution{SampleEvery: 64, Workers: 1, Snapshots: 3},
	}
	orig := coreGoldenProfile
	coreGoldenProfile = func(prog *ir.Program, rc core.RunConfig) (core.RunOutcome, []core.SiteCut) {
		out, _ := orig(prog, rc)
		return out, nil
	}
	t.Cleanup(func() { coreGoldenProfile = orig })
	goldens := countGoldens(t)
	for i := 0; i < 2; i++ {
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := goldens.Load(); n != 1 {
		t.Errorf("golden executed %d times over two campaigns, want 1", n)
	}
	if *resumes != 0 {
		t.Errorf("%d experiments forked without a single cut", *resumes)
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
