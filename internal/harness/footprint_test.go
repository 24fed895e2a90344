package harness

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
)

// rankBacking is the address-space backing one rank may hold once a
// campaign is over, whatever its faults did: a flat address space is 8 MiB.
const rankBacking = 256 << 10

// TestCampaignFootprint runs the five applications at test scale and
// LULESH at campaign scale through a forked campaign and checks what the
// address spaces cost: every experiment's ranks ended with at most
// rankBacking each, and so did the pack's own bundle. The LULESH test
// campaign is the one that matters most: within these 60 experiments a
// faulty run stores 4 MiB above its data.
func TestCampaignFootprint(t *testing.T) {
	type study struct {
		app    apps.App
		params apps.Params
	}
	var studies []study
	for _, app := range apps.All() {
		studies = append(studies, study{app, app.TestParams()})
	}
	studies = append(studies, study{apps.All()[0], apps.All()[0].DefaultParams()})
	for _, s := range studies {
		var mu sync.Mutex
		var least, most int64
		cfg := CampaignConfig{
			App: s.app, Params: s.params,
			Sampling:  Sampling{Runs: 60, Seed: 2015},
			Execution: Execution{SampleEvery: 64, Workers: 2, Snapshots: 8},
			OnPhase: func(tr PhaseTrace) {
				mu.Lock()
				defer mu.Unlock()
				if least == 0 || tr.BackedBytes < least {
					least = tr.BackedBytes
				}
				most = max(most, tr.BackedBytes)
			},
		}
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		name, ranks := s.app.Name(), int64(s.params.Ranks)
		if least <= 0 || most > ranks*rankBacking {
			t.Errorf("%s %v: experiments ended with %d..%d bytes backed over %d ranks, want within (0, %d]",
				name, s.params, least, most, ranks, ranks*rankBacking)
		}
		if name == "LULESH" && s.params == s.app.TestParams() && most < least+4096 {
			t.Errorf("LULESH: no experiment backed a page more than the %d bytes of the leanest; the wild store is gone from this campaign", least)
		}
		p := lookupPack(packKey{app: name, params: s.params, sample: 64})
		if p == nil {
			t.Fatalf("%s: campaign left no pack behind", name)
		}
		for r, b := range p.reuse.BackedBytes() {
			if b <= 0 || b > rankBacking {
				t.Errorf("%s %v: rank %d of the pack's bundle holds %d bytes of backing, want within (0, %d]",
					name, s.params, r, b, rankBacking)
			}
		}
	}
}

// TestResidentPacksHeap bounds what five resident packs — the paper's
// study, set up and forked from — pin in the Go heap. Each pack keeps a
// bundle of four address spaces and one job for its lifetime: flat address
// spaces made 160 MiB of them, and per-pair mailbox channels another
// 0.5 MiB per four-rank job.
func TestResidentPacksHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	resetPacks()
	t.Cleanup(resetPacks)
	for _, app := range apps.All() {
		_, err := RunCampaign(CampaignConfig{
			App: app, Params: app.TestParams(),
			Sampling:  Sampling{Runs: 8, Seed: 2015},
			Execution: Execution{SampleEvery: 64, Workers: 2, Snapshots: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("HeapInuse = %.1f MiB with five packs resident", float64(ms.HeapInuse)/(1<<20))
	if ms.HeapInuse > 16<<20 {
		t.Errorf("HeapInuse = %d MiB with five packs resident, want at most 16", ms.HeapInuse>>20)
	}
}
