package harness

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// Shared golden packs: the single set-up path of every campaign.
//
// A pack is the process-wide cache of everything a campaign derives from
// the fault-free execution of one (app, params, sampleEvery, protect)
// configuration: the instrumented program and its static site table, the
// golden outcome and quiesce-point profile (one execution yields both), and
// the snapshots captured so far, keyed by quiesce seq. RunShardContext
// always draws these from the configuration's pack; Execution.Snapshots
// only sizes the capture budget (see snapshots.go). Snapshot placement is
// purely a performance strategy — results are byte-identical with any
// placement, including none — so sharing set-up and capture work across
// campaigns (service tenants re-running a configuration, shards of one
// campaign in one process) cannot change results; it only removes
// redundant builds, golden re-executions and capture allocations.
//
// Snapshots stored in a pack are immutable once captured: forks copy out
// of them, never into them, and incremental capture only fills seqs that
// are missing from the pack. Evicting a map entry therefore never
// invalidates a running campaign — its schedule keeps referencing the
// evicted snapshots, which stay alive and read-only until the campaign
// drops them. For the same reason evicted snapshots are NOT released into
// the shell pool (a pooled shell would be overwritten in place by the next
// capture while a campaign may still be forking from it).
const (
	// maxPacks bounds the number of cached configurations (LRU beyond it).
	maxPacks = 4
	// maxPackSnaps bounds the per-pack snapshot map; past it, snapshots
	// not chosen by the schedule being built are dropped for GC.
	maxPackSnaps = 256
)

// packKey identifies one golden configuration. Everything the cached
// artifacts depend on is in the key: the instrumented program is a
// function of (app, params, protect), the golden outcome, cut profile and
// captures additionally of (ranks, sampleEvery) — and ranks is part of
// params.
type packKey struct {
	app     string
	params  apps.Params
	sample  uint64
	protect string
}

type snapshotPack struct {
	// mu serializes set-up and the capture runs of campaigns sharing the
	// pack: they all execute on the pack's Reuse bundle. Experiment workers
	// never take it — they read captured snapshots, which are immutable.
	mu sync.Mutex
	// Set once by prepare, immutable afterwards.
	ready  bool
	inst   *ir.Program
	sites  []transform.SiteInfo
	reuse  *core.Reuse
	golden core.RunOutcome
	cuts   []core.SiteCut

	snaps map[uint64]*core.CampaignSnapshot
}

// packMu guards only the registry below; set-up runs under each pack's own
// mutex so one configuration's build and golden execution never stall
// campaigns over another.
var (
	packMu  sync.Mutex
	packs   = map[packKey]*snapshotPack{}
	packLRU []packKey // least recently used first
)

// coreGoldenProfile indirects the golden execution so tests can count it
// and route it through a reference program (like coreRun in campaign.go).
var coreGoldenProfile = core.RunGoldenProfile

// packFor returns the process-wide pack for the campaign's configuration,
// set up on first use. A pack whose set-up failed is dropped from the
// registry, so the failure is returned but not cached.
func packFor(cfg CampaignConfig) (*snapshotPack, error) {
	key := packKey{
		app:     cfg.App.Name(),
		params:  cfg.Params,
		sample:  cfg.SampleEvery,
		protect: protectKey(cfg.Protect),
	}
	sameKey := func(k packKey) bool { return k == key }
	packMu.Lock()
	p := packs[key]
	if p == nil {
		p = &snapshotPack{snaps: make(map[uint64]*core.CampaignSnapshot)}
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
// execution — reference outcome and quiesce-point profile together — the
// first time the pack is used. An app with no quiesce points keeps its
// empty cut list like any other.
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
	golden, cuts := coreGoldenProfile(inst, core.RunConfig{
		Ranks:       cfg.Params.Ranks,
		SampleEvery: cfg.SampleEvery,
		Reuse:       reuse,
	})
	if golden.Err != nil {
		return fmt.Errorf("harness: golden run of %s failed: %w", cfg.App.Name(), golden.Err)
	}
	p.inst, p.sites, p.reuse = inst, infos, reuse
	p.golden, p.cuts, p.ready = golden, cuts, true
	return nil
}

// resetPacks drops every cached pack (tests only).
func resetPacks() {
	packMu.Lock()
	defer packMu.Unlock()
	packs = make(map[packKey]*snapshotPack)
	packLRU = nil
}

// trim bounds the snapshot map, preferring to keep the seqs the current
// schedule chose. Caller holds p.mu.
func (p *snapshotPack) trim(keep []uint64) {
	if len(p.snaps) <= maxPackSnaps {
		return
	}
	kept := make(map[uint64]bool, len(keep))
	for _, s := range keep {
		kept[s] = true
	}
	for s := range p.snaps {
		if len(p.snaps) <= maxPackSnaps {
			break
		}
		if !kept[s] {
			delete(p.snaps, s)
		}
	}
}
