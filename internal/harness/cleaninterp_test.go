package harness

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// unpaired returns a shallow clone of an instrumented program whose
// functions declare no register pairing. The VM lowers such a program
// without a clean code array, so every rank built on the clone runs the
// full dual-chain interpreter.
func unpaired(p *ir.Program) *ir.Program {
	q := &ir.Program{ByName: p.ByName, Globals: p.Globals, GlobalWords: p.GlobalWords, Entry: p.Entry}
	for _, f := range p.Funcs {
		g := *f
		g.PairedRegs = 0
		q.Funcs = append(q.Funcs, &g)
	}
	return q
}

// forceFullInterp reroutes every execution the harness starts — golden,
// from-scratch and resumed — onto the unpaired clone of its program until
// the returned function is called.
func forceFullInterp() (restore func()) {
	var mu sync.Mutex
	clones := map[*ir.Program]*ir.Program{}
	full := func(p *ir.Program) *ir.Program {
		mu.Lock()
		defer mu.Unlock()
		if clones[p] == nil {
			clones[p] = unpaired(p)
		}
		return clones[p]
	}
	golden, run, resumed := coreGoldenCapture, coreRun, coreRunResumed
	coreGoldenCapture = func(p *ir.Program, cfg core.RunConfig, seqs []uint64, sites bool) (core.RunOutcome, []*core.CampaignSnapshot, core.SiteRuns, core.Traffic) {
		return golden(full(p), cfg, seqs, sites)
	}
	coreRun = func(p *ir.Program, cfg core.RunConfig) core.RunOutcome { return run(full(p), cfg) }
	coreRunResumed = func(p *ir.Program, cfg core.RunConfig, s *core.CampaignSnapshot) core.RunOutcome {
		return resumed(full(p), cfg, s)
	}
	return func() { coreGoldenCapture, coreRun, coreRunResumed = golden, run, resumed }
}

// TestCleanInterpByteIdentical is the differential gate for the clean-mode
// interpreter: for every application of the study, serial and at four
// ranks, a fixed-seed campaign must be byte-identical — full JSON results,
// every figure and table — to the same campaign executed entirely by the
// full dual-chain interpreter (the reference leg runs the unpaired clone of
// the program, which has no clean code array). The clean interpreter runs
// twice: from step 0, and in snapshot-fork mode, covering the mode handoff
// through Snapshot/RestoreSnap.
//
// TestSnapshotForkByteIdentical does not cover this: both of its campaigns
// run the same interpreter, so a clean-mode bug would cancel out there.
func TestCleanInterpByteIdentical(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name(), func(t *testing.T) {
			for _, ranks := range []int{1, 4} {
				t.Run(fmt.Sprintf("r%d", ranks), func(t *testing.T) {
					params := app.TestParams()
					params.Ranks = ranks
					base := CampaignConfig{
						App:    app,
						Params: params, Sampling: Sampling{Runs: 12, Seed: 2015}, Execution: Execution{SampleEvery: 64, Workers: 1},
					}

					// Each leg sets its pack up itself: the golden run is
					// part of the differential.
					resetPacks()
					t.Cleanup(resetPacks)
					restore := forceFullInterp()
					before := vm.CleanModeSwitches()
					want, err := RunCampaign(base)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if vm.CleanModeSwitches() != before {
						t.Error("reference campaign left clean mode: it was not all full-interpreter")
					}

					resetPacks()
					before = vm.CleanModeSwitches()
					got, err := RunCampaign(base)
					if err != nil {
						t.Fatal(err)
					}
					if vm.CleanModeSwitches() == before {
						t.Error("campaign never switched interpreter modes: differential is vacuous")
					}
					assertStudyIdentical(t, "clean vs full interpreter", want, got)

					resumes := countResumes(t)
					snapped := base
					snapped.Snapshots = 3
					gotSnap, err := RunCampaign(snapped)
					if err != nil {
						t.Fatal(err)
					}
					if *resumes == 0 {
						t.Error("snapshot campaign never forked from a snapshot")
					}
					assertStudyIdentical(t, "clean snapshot-fork vs full re-execution", want, gotSnap)
				})
			}
		})
	}
}
