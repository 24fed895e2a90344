package harness

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// Shared golden packs: the single set-up path of every campaign.
//
// A pack is the process-wide owner of everything derived from the
// fault-free execution of one (app, params, sampleEvery, protect)
// configuration. It holds four artefacts, each produced at most once per
// pack and only when something first needs it:
//
//  1. the instrumented program and its static site table — prepare, on the
//     first packFor of the configuration (any campaign, planner or
//     StaticSiteCount);
//  2. the golden outcome, also in the shapes every partial result carries
//     (classify.Golden, per-rank site counts) — prepare, one execution;
//  3. the full state at each of the first maxCuts quiesce cuts, each with
//     its cut (the per-rank site counts reached there), and every rank's MPI
//     traffic — prepare, same execution; campaigns fork from the cuts and
//     end at them, and golden-equal ranks replay the traffic
//     (snapshots.go);
//  4. the dyn→static site map (per-rank runs of static fim_inj ordinals,
//     sites.go) — recorded by prepare's execution when the first campaign
//     is stratified or per-site; a pack set up without it that is later
//     asked for it records it once in siteMapOf, in an execution that
//     captures nothing.
//
// Every one of them comes from the capture execution, the one kind of
// fault-free execution a pack runs. Nothing else in harness, service or
// cmd/campaign builds, instruments or executes an application fault-free.
// None of the artefacts depends on
// the seed, Execution.Snapshots or the shard, and forking is purely a
// performance strategy — results are byte-identical with it or without — so
// sharing them across campaigns (service tenants re-running a
// configuration, shards and adaptive rounds of one campaign in one process,
// a resume) cannot change results; it only removes redundant builds and
// golden executions.
//
// Snapshots stored in a pack are immutable once captured: forks copy out
// of them, never into them. An evicted pack's snapshots therefore stay
// alive and read-only until the last campaign forking from them drops its
// schedule.
const (
	// maxPacks bounds the number of cached configurations (LRU beyond it).
	// The paper's study is five applications, and `campaign -protect-top`
	// runs each next to a protected twin: 8 holds the study plus a twin with
	// room to spare, so a study, its resume and its shards stop evicting and
	// rebuilding each other's packs. An evicted pack is garbage, not cache.
	maxPacks = 8
	// maxCuts bounds the quiesce cuts a pack captures: it keeps the first
	// maxCuts. CLI and daemon campaigns run at default or test scale, whose
	// apps have at most 100 cuts; only library callers with custom Params
	// go past it, and their later faults fork from the last kept cut.
	maxCuts = 256
)

// packKey identifies one golden configuration. Everything the cached
// artifacts depend on is in the key: the instrumented program is a
// function of (app, params, protect), the golden outcome and captures
// additionally of (ranks, sampleEvery) — and ranks is part of params.
type packKey struct {
	app     string
	params  apps.Params
	sample  uint64
	protect string
}

type snapshotPack struct {
	// mu serializes the pack's fault-free executions: they all run on the
	// pack's Reuse bundle. Experiment workers never take it — they read
	// captured snapshots, which are immutable.
	mu sync.Mutex
	// Set once by prepare, immutable afterwards.
	ready  bool
	inst   *ir.Program
	sites  []transform.SiteInfo
	reuse  *core.Reuse
	golden core.RunOutcome
	// snaps holds the captures of the golden execution's first maxCuts
	// quiesce cuts, ordered by seq, and traffic its MPI traffic.
	snaps   []*core.CampaignSnapshot
	traffic core.Traffic
	// ref and goldenSites are the golden outcome in the shapes every
	// partial result of the configuration carries.
	ref         classify.Golden
	goldenSites []uint64

	// smap is the dyn→static site map, set by the first execution that
	// records it and immutable afterwards.
	smap *siteMap
}

// strata views the pack's site map as a stratification with the given
// phase count.
func (p *snapshotPack) strata(m *siteMap, phases int) *Strata {
	return &Strata{Phases: phases, sites: p.goldenSites, m: m}
}

// packMu guards only the registry below; set-up runs under each pack's own
// mutex so one configuration's build and golden execution never stall
// campaigns over another.
var (
	packMu  sync.Mutex
	packs   = map[packKey]*snapshotPack{}
	packLRU []packKey // least recently used first
)

// coreGoldenCapture indirects the pack's one kind of fault-free execution
// so tests can count it, fail it and route it through a reference program
// (like coreRun in engine.go).
var coreGoldenCapture = core.RunGoldenCaptureSites

// packFor returns the process-wide pack for the campaign's configuration,
// set up on first use. A pack whose set-up failed is dropped from the
// registry, so the failure is returned but not cached.
func packFor(cfg CampaignConfig) (*snapshotPack, error) {
	key := packKey{
		app:     cfg.App.Name(),
		params:  cfg.Params,
		sample:  cfg.SampleEvery,
		protect: token(cfg.Protect),
	}
	sameKey := func(k packKey) bool { return k == key }
	packMu.Lock()
	p := packs[key]
	if p == nil {
		p = &snapshotPack{}
		packs[key] = p
	}
	packLRU = append(slices.DeleteFunc(packLRU, sameKey), key)
	for len(packLRU) > maxPacks {
		delete(packs, packLRU[0])
		packLRU = packLRU[1:]
	}
	packMu.Unlock()
	if err := p.prepare(cfg); err != nil {
		packMu.Lock()
		if packs[key] == p {
			delete(packs, key)
			packLRU = slices.DeleteFunc(packLRU, sameKey)
		}
		packMu.Unlock()
		return nil, err
	}
	return p, nil
}

// prepare builds and instruments the program and runs its one golden
// execution — reference outcome and the capture of every quiesce cut up to
// maxCuts together, and the site map when cfg needs it — the first time the
// pack is used. An app with no quiesce points keeps its empty capture list
// like any other; one with no injection sites cannot be campaigned on at
// all.
func (p *snapshotPack) prepare(cfg CampaignConfig) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ready {
		return nil
	}
	prog, err := cfg.App.Build(cfg.Params)
	if err != nil {
		return fmt.Errorf("harness: build %s: %w", cfg.App.Name(), err)
	}
	inst, infos, err := transform.InstrumentSites(prog, cfg.transformOptions())
	if err != nil {
		return fmt.Errorf("harness: instrument %s: %w", cfg.App.Name(), err)
	}
	reuse := core.NewReuse(cfg.Params.Ranks)
	seqs := make([]uint64, maxCuts)
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	golden, snaps, runs, traffic := coreGoldenCapture(inst, core.RunConfig{
		Ranks:       cfg.Params.Ranks,
		SampleEvery: cfg.SampleEvery,
		Reuse:       reuse,
	}, seqs, cfg.needsSiteMap())
	if golden.Err != nil {
		return fmt.Errorf("harness: golden run of %s failed: %w", cfg.App.Name(), golden.Err)
	}
	goldenSites := golden.SiteCounts()
	if !slices.ContainsFunc(goldenSites, func(n uint64) bool { return n > 0 }) {
		return fmt.Errorf("inject: no rank has injection sites")
	}
	p.inst, p.sites, p.reuse = inst, infos, reuse
	p.golden, p.snaps, p.traffic, p.ready = golden, snaps, traffic, true
	p.ref = classify.Golden{
		Outputs:    golden.Outputs,
		Cycles:     golden.Cycles,
		Iterations: golden.Iterations,
	}
	p.goldenSites = goldenSites
	if runs != nil {
		p.smap = newSiteMap(infos, runs)
	}
	return nil
}

// siteMapOf returns the pack's dyn→static site map, recording it in one
// more capture execution that captures nothing (on the pack's Reuse) when
// the pack was set up without it. A failed recording is returned but not
// cached, so the next caller retries.
func (p *snapshotPack) siteMapOf(cfg CampaignConfig) (*siteMap, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.smap != nil {
		return p.smap, nil
	}
	out, _, runs, _ := coreGoldenCapture(p.inst, core.RunConfig{
		Ranks:       cfg.Params.Ranks,
		SampleEvery: cfg.SampleEvery,
		Reuse:       p.reuse,
	}, nil, true)
	if out.Err != nil {
		return nil, fmt.Errorf("harness: site-class profile of %s failed: %w", cfg.App.Name(), out.Err)
	}
	p.smap = newSiteMap(p.sites, runs)
	return p.smap, nil
}

// StaticSiteCount returns the number of static fim_inj sites in the
// configuration's instrumented program — the selective-protection coverage
// denominator (a site ranking only lists sites some experiment hit).
func StaticSiteCount(cfg CampaignConfig) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	p, err := packFor(cfg)
	if err != nil {
		return 0, err
	}
	return len(p.sites), nil
}

// resetPacks drops every cached pack (tests only).
func resetPacks() {
	packMu.Lock()
	defer packMu.Unlock()
	packs = make(map[packKey]*snapshotPack)
	packLRU = nil
}
