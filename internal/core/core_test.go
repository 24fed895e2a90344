package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/vm"
	"repro/internal/xrand"
)

func TestRootCausePriority(t *testing.T) {
	peer := &vm.Trap{Kind: vm.TrapPeerFailure}
	oob := &vm.Trap{Kind: vm.TrapOOB}
	ranks := []RankResult{{Err: peer}, {Err: oob}, {}}
	if got := rootCause(ranks); got != oob {
		t.Errorf("rootCause = %v, want the OOB trap", got)
	}
	ranks = []RankResult{{Err: peer}, {}}
	if got := rootCause(ranks); got != peer {
		t.Errorf("rootCause = %v, want the peer trap", got)
	}
	if got := rootCause([]RankResult{{}, {}}); got != nil {
		t.Errorf("rootCause = %v, want nil", got)
	}
}

// buildLoopProg builds a two-rank program: each rank repeatedly updates an
// accumulator array and allreduces a checksum.
func buildLoopProg(iters int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 16)
	sendSlot := b.Global("send", 1)
	redSlot := b.Global("red", 1)
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	s := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(iters), func() {
		f.Tick(ir.R(s))
		f.For(i, ir.ImmI(0), ir.ImmI(16), func() {
			old := f.Ld(ir.ImmI(acc), ir.R(i))
			f.St(ir.R(f.FAdd(ir.R(old), ir.ImmF(1.5))), ir.ImmI(acc), ir.R(i))
		})
		sum := f.CF(0)
		f.For(i, ir.ImmI(0), ir.ImmI(16), func() {
			f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(acc), ir.R(i))))
		})
		f.Store(ir.R(sum), ir.ImmI(sendSlot))
		f.MPIAllreduceF(ir.ImmI(sendSlot), ir.ImmI(redSlot), ir.ImmI(1), ir.ReduceSum)
	})
	f.OutputF(ir.R(f.Load(ir.ImmI(redSlot))))
	f.Iterations(ir.ImmI(iters))
	f.Ret()
	return b.MustBuild()
}

func TestAnalyzerGoldenAndInjection(t *testing.T) {
	a, err := NewAnalyzer(buildLoopProg(20), 2, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Golden().Err != nil {
		t.Fatal(a.Golden().Err)
	}
	sites := a.SiteCounts()
	if len(sites) != 2 || sites[0] == 0 {
		t.Fatalf("sites = %v", sites)
	}
	r := xrand.New(5)
	sawContamination := false
	for k := 0; k < 20 && !sawContamination; k++ {
		plan, err := a.PlanUniform(r)
		if err != nil {
			t.Fatal(err)
		}
		out := a.Analyze(plan)
		if out.Run.Ever {
			sawContamination = true
		}
		if out.Class == classify.Vanished && out.Run.Ever {
			t.Error("Vanished class with contaminated memory")
		}
	}
	if !sawContamination {
		t.Error("20 injections, no contamination at all")
	}
}

// buildSoloProg is buildLoopProg without MPI: the taint ablation is a
// within-process comparison (the taint model has no message piggyback).
func buildSoloProg(iters int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 16)
	out := b.Global("out", 1)
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	s := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(iters), func() {
		f.Tick(ir.R(s))
		f.For(i, ir.ImmI(0), ir.ImmI(16), func() {
			old := f.Ld(ir.ImmI(acc), ir.R(i))
			scaled := f.FMul(ir.R(old), ir.ImmF(0.5))
			f.St(ir.R(f.FAdd(ir.R(scaled), ir.ImmF(1.5))), ir.ImmI(acc), ir.R(i))
		})
		sum := f.CF(0)
		f.For(i, ir.ImmI(0), ir.ImmI(16), func() {
			f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(acc), ir.R(i))))
		})
		f.Store(ir.R(sum), ir.ImmI(out))
	})
	f.OutputF(ir.R(f.Load(ir.ImmI(out))))
	f.Iterations(ir.ImmI(iters))
	f.Ret()
	return b.MustBuild()
}

func TestTaintOverestimatesDualChain(t *testing.T) {
	// The naive taint tracker must never report fewer corrupted locations
	// than the exact dual-chain FPM on the same single-process run, and
	// should overestimate on at least some runs (the paper's argument for
	// the dual-chain design).
	prog := buildSoloProg(12)
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	golden := Run(inst, RunConfig{Ranks: 1})
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	r := xrand.New(33)
	checked, over := 0, 0
	for k := 0; k < 40; k++ {
		plan, err := inject.UniformSinglePlan(r, golden.SiteCounts())
		if err != nil {
			t.Fatal(err)
		}
		run := Run(inst, RunConfig{
			Ranks:      1,
			Plan:       plan,
			CycleLimit: golden.Cycles * 4,
			TrackTaint: true,
		})
		if run.Err != nil {
			continue
		}
		if run.TaintPeakTotal < run.MaxCMLTotal {
			t.Errorf("taint (%d) below exact CML (%d) — taint must overestimate",
				run.TaintPeakTotal, run.MaxCMLTotal)
		}
		if run.TaintPeakTotal > run.MaxCMLTotal {
			over++
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no clean runs to compare")
	}
	if over == 0 {
		t.Error("taint never overestimated; ablation shows nothing")
	}

	// The ablation's numbers, pinned: Σ taint peak / Σ exact CML peak over
	// 200 uniform single-fault plans per application (one rank, test scale,
	// crashed runs included). Observation must not perturb the run: each
	// taint run equals the plain run of the same plan.
	want := map[string][2]int{
		"LULESH": {5660, 689}, "LAMMPS": {1993, 1092}, "miniFE": {2224, 1038},
		"AMG2013": {6116, 5480}, "MCB": {1406, 1121},
	}
	for _, app := range apps.All() {
		p := app.TestParams()
		p.Ranks = 1
		prog, err := app.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := transform.Instrument(prog, transform.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		golden := Run(inst, RunConfig{Ranks: 1})
		if golden.Err != nil {
			t.Fatal(golden.Err)
		}
		r := xrand.New(9)
		var sums [2]int
		for k := 0; k < 200; k++ {
			plan, err := inject.UniformSinglePlan(r, golden.SiteCounts())
			if err != nil {
				t.Fatal(err)
			}
			cfg := RunConfig{Ranks: 1, Plan: plan, CycleLimit: golden.Cycles * 4}
			plain := Run(inst, cfg)
			cfg.TrackTaint = true
			run := Run(inst, cfg)
			sums[0] += run.TaintPeakTotal
			sums[1] += run.MaxCMLTotal
			got := []any{run.Ranks[0].Outputs, run.Cycles, run.Ranks[0].Sites, run.MaxCMLTotal,
				run.Ranks[0].Points, fmt.Sprint(run.Err)}
			ref := []any{plain.Ranks[0].Outputs, plain.Cycles, plain.Ranks[0].Sites, plain.MaxCMLTotal,
				plain.Ranks[0].Points, fmt.Sprint(plain.Err)}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s plan %d: taint run diverged from plain run:\n got %v\nwant %v", app.Name(), k, got, ref)
			}
		}
		if sums != want[app.Name()] {
			t.Errorf("%s: Σ taint/exact = %d/%d, want %d/%d", app.Name(),
				sums[0], sums[1], want[app.Name()][0], want[app.Name()][1])
		}
	}
}

func TestMemoryLevelInjectionNeverVanishes(t *testing.T) {
	// Direct memory injection (the contrasted model, paper §6) bypasses
	// processor-level masking: the fault always lands in memory.
	prog := buildLoopProg(12)
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := Run(inst, RunConfig{
		Ranks: 2,
		MemFaults: map[int][]vm.MemFault{
			0: {{AtCycle: 100, AddrUnit: 0.3, Bit: 7}},
		},
	})
	if run.Ranks[0].MemFaultsApplied != 1 {
		t.Fatalf("memory fault did not apply: %+v", run.Ranks[0])
	}
	if !run.Ranks[0].Ever {
		t.Error("memory-level fault did not contaminate memory")
	}
}

func TestRunOutcomeSiteCountsShape(t *testing.T) {
	inst, err := transform.Instrument(buildLoopProg(3), transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := Run(inst, RunConfig{Ranks: 3})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	counts := run.SiteCounts()
	if len(counts) != 3 {
		t.Fatalf("counts = %v", counts)
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d: zero sites", r)
		}
	}
	rr := run.ToRunResult()
	if rr.Err != nil || len(rr.Outputs) == 0 {
		t.Errorf("ToRunResult = %+v", rr)
	}
}
