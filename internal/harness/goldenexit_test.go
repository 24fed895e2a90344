package harness

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// withoutTelemetry drops what only says how a run executed — restore
// stats, backing, the exits themselves — from its outcome.
func withoutTelemetry(o core.RunOutcome) outcomeView {
	o.Forked, o.RestoreBytes = false, 0
	o.BackedBytes, o.Exited, o.SkippedCycles = 0, false, 0
	o.GhostExits, o.GhostResumes = 0, 0
	o.Ranks = append([]core.RankResult(nil), o.Ranks...)
	for r := range o.Ranks {
		o.Ranks[r].Ghost = false
	}
	return viewOf(o)
}

// FuzzGoldenExit drives the matrix's check (checkRow) over generated
// (row, application, seed) triples; its seed corpus runs the ghost rows.
func FuzzGoldenExit(f *testing.F) {
	f.Add(uint8(15), uint8(0), uint64(2015))
	f.Add(uint8(16), uint8(1), uint64(7))
	f.Add(uint8(17), uint8(4), uint64(99))
	f.Add(uint8(18), uint8(0), uint64(2022))
	f.Add(uint8(19), uint8(2), uint64(5))
	all := apps.All()
	f.Fuzz(func(t *testing.T, row, app uint8, seed uint64) {
		checkRow(t, matrixRows[int(row)%len(matrixRows)], all[int(app)%len(all)], seed, nil)
	})
}

// TestGoldenTrafficImmutable runs two campaigns on one pack at once, each
// with two workers, whose ghosts replay the pack's golden traffic
// concurrently, and checks that no byte of the traffic changed: a log
// slice handed to a peer or to the wire-buffer pool would be written into
// by a later message. Under -race it also checks that the replays only
// read the log.
func TestGoldenTrafficImmutable(t *testing.T) {
	app := apps.ByName("LULESH")
	params := app.TestParams()
	params.Ranks = 4
	cfg := CampaignConfig{
		App: app, Params: params,
		Sampling:  Sampling{Runs: 60, Seed: 2015},
		Execution: Execution{SampleEvery: 64, Workers: 2, Snapshots: 64},
	}
	pack, err := packFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := pack.traffic.Digest()
	// Each run's phase trace reports its ghost ends and resumes.
	var exits, resumes atomic.Int64
	cfg.OnPhase = func(tr PhaseTrace) {
		exits.Add(int64(tr.GhostExits))
		resumes.Add(int64(tr.GhostResumes))
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed += uint64(i)
			_, errs[i] = RunCampaign(c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := packFor(cfg); p != pack {
		t.Fatal("the campaigns did not share the pack")
	}
	if exits.Load() == 0 || resumes.Load() == 0 {
		t.Fatalf("%d ghost ends and %d resumes: the traffic was not replayed", exits.Load(), resumes.Load())
	}
	if after := pack.traffic.Digest(); after != before {
		t.Errorf("the pack's golden traffic changed: digest %x, was %x", after, before)
	}
}
