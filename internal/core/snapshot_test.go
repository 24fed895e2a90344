package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/vm"
)

// buildCrossCutProg builds a two-rank program with a point-to-point message
// that stays in flight across several collective rounds: rank 0 sends
// before the first barrier, rank 1 receives only after the timestep loop.
// Snapshots taken at the intermediate quiesce points must therefore carry
// the queued message through the cut.
func buildCrossCutProg(iters int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 16)
	box := b.Global("box", 4)
	sendSlot := b.Global("send", 1)
	redSlot := b.Global("red", 1)
	f := b.Func("main", 0, 0)
	rank := f.MPIRank()
	i := f.NewReg()
	s := f.NewReg()
	f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(0))), func() {
		f.For(i, ir.ImmI(0), ir.ImmI(4), func() {
			f.St(ir.R(f.Mul(ir.R(i), ir.ImmI(7))), ir.ImmI(box), ir.R(i))
		})
		f.MPISend(ir.ImmI(box), ir.ImmI(4), ir.ImmI(1), ir.ImmI(42))
	})
	f.MPIBarrier()
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
	f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(1))), func() {
		f.MPIRecv(ir.ImmI(box), ir.ImmI(4), ir.ImmI(0), ir.ImmI(42))
	})
	f.For(i, ir.ImmI(0), ir.ImmI(4), func() {
		f.OutputI(ir.R(f.Ld(ir.ImmI(box), ir.R(i))))
	})
	f.OutputF(ir.R(f.Load(ir.ImmI(redSlot))))
	f.Iterations(ir.ImmI(iters))
	f.Ret()
	return b.MustBuild()
}

// condense projects a RunOutcome onto the observables campaigns consume,
// every rank's included.
func condense(o RunOutcome) map[string]any {
	ranks := make([]map[string]any, len(o.Ranks))
	for i, rr := range o.Ranks {
		ranks[i] = map[string]any{"casualty": rr.Casualty}
		ranks[i]["trap"] = trapKind(rr.Err)
		ranks[i]["failed"] = rr.Err != nil
		ranks[i]["outputs"] = rr.Outputs
		ranks[i]["cycles"] = rr.Cycles
		ranks[i]["sites"] = rr.Sites
		ranks[i]["inj"] = rr.InjCycles
		ranks[i]["iters"] = rr.Iterations
		ranks[i]["maxCML"] = rr.MaxCML
		ranks[i]["finalCML"] = rr.FinalCML
		ranks[i]["ever"] = rr.Ever
		ranks[i]["alloc"] = rr.AllocatedWords
		ranks[i]["points"] = rr.Points
		ranks[i]["contam"] = rr.Contaminated
		ranks[i]["first"] = rr.FirstContam
		ranks[i]["structCML"] = rr.StructCML
	}
	return map[string]any{
		"ranks":   ranks,
		"trap":    trapKind(o.Err),
		"failed":  o.Err != nil,
		"outputs": o.Outputs,
		"cycles":  o.Cycles,
		"iters":   o.Iterations,
		"ever":    o.Ever,
		"maxCML":  o.MaxCMLTotal,
		"alloc":   o.AllocatedTotal,
		"spread":  o.Spread.Series(),
		"struct":  o.StructCML,
	}
}

func trapKind(err error) vm.TrapKind {
	if t := vm.AsTrap(err); t != nil {
		return t.Kind
	}
	return vm.TrapKind(-1)
}

// TestGoldenCaptureResumeByteIdentical is the core-level differential
// property: for every captured cut and a spread of fault plans usable from
// it, RunResumed must equal Run in every deterministic observable — with an
// in-flight point-to-point message crossing the cuts. The short MPI timeout
// keeps plans that desynchronize the collective schedule (a corrupted trip
// count making one rank exit early) from stalling the test; the timeout
// outcome itself is deterministic, so it still must match across modes.
func TestGoldenCaptureResumeByteIdentical(t *testing.T) {
	prog := buildCrossCutProg(8)
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := RunConfig{Ranks: 2, SampleEvery: 8, Timeout: 2 * time.Second}

	golden, cuts := RunGoldenProfile(inst, rcfg)
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	if len(cuts) < 3 {
		t.Fatalf("expected several quiesce points, got %d", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		for r := range cuts[i].Sites {
			if cuts[i].Sites[r] < cuts[i-1].Sites[r] {
				t.Fatalf("cut %d rank %d sites %d < cut %d's %d",
					i, r, cuts[i].Sites[r], i-1, cuts[i-1].Sites[r])
			}
		}
	}

	pick := []int{0, len(cuts) / 2, len(cuts) - 1}
	seqs := make([]uint64, 0, len(pick))
	for _, i := range pick {
		seqs = append(seqs, cuts[i].Seq)
	}
	capOut, snaps := RunGoldenCapture(inst, rcfg, seqs)
	if capOut.Err != nil {
		t.Fatal(capOut.Err)
	}
	if len(snaps) != len(seqs) {
		t.Fatalf("captured %d of %d cuts", len(snaps), len(seqs))
	}
	for i, snap := range snaps {
		if want := cuts[pick[i]].Sites; !reflect.DeepEqual(snap.Cut.Sites, want) {
			t.Fatalf("capture at seq %d saw sites %v, profile saw %v",
				snap.Cut.Seq, snap.Cut.Sites, want)
		}
	}

	total := golden.SiteCounts()
	cycleLimit := golden.Cycles * 4
	checked := 0
	for _, snap := range snaps {
		for rank := 0; rank < 2; rank++ {
			base := snap.Cut.Sites[rank]
			if base >= total[rank] {
				continue
			}
			for k := uint64(0); k < 2; k++ {
				site := base + (2*k+1)*(total[rank]-base)/4
				plan := inject.Plan{Faults: []inject.Fault{{Rank: rank, Site: site, Bit: uint(11 + 7*k)}}}
				if !snap.Usable(plan) {
					t.Fatalf("cut %d not usable for its own site range (rank %d site %d)", snap.Cut.Seq, rank, site)
				}
				ecfg := rcfg
				ecfg.CycleLimit = cycleLimit
				ecfg.Plan = plan
				want := condense(Run(inst, ecfg))
				got := condense(RunResumed(inst, ecfg, snap))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cut %d, fault %v: resumed run diverged\n got: %v\nwant: %v",
						snap.Cut.Seq, plan.Faults[0], got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no (cut, fault) pairs checked")
	}

	// Fault-free resume from the last cut reproduces the golden run.
	wantGolden := condense(Run(inst, rcfg))
	gotGolden := condense(RunResumed(inst, rcfg, snaps[len(snaps)-1]))
	if !reflect.DeepEqual(gotGolden, wantGolden) {
		t.Error("fault-free resume diverged from golden")
	}
}

// TestResumeWithReuseMatchesFresh checks the pooled path: resuming through
// a Reuse bundle dirtied by prior unrelated runs must equal a fresh-state
// resume.
func TestResumeWithReuseMatchesFresh(t *testing.T) {
	prog := buildCrossCutProg(6)
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := RunConfig{Ranks: 2, SampleEvery: 4, Timeout: 2 * time.Second}
	golden, cuts := RunGoldenProfile(inst, rcfg)
	if golden.Err != nil || len(cuts) == 0 {
		t.Fatalf("profile: err=%v cuts=%d", golden.Err, len(cuts))
	}
	_, snaps := RunGoldenCapture(inst, rcfg, []uint64{cuts[len(cuts)/2].Seq})
	if len(snaps) != 1 {
		t.Fatalf("captured %d snapshots", len(snaps))
	}
	snap := snaps[0]
	total := golden.SiteCounts()
	plan := inject.Plan{Faults: []inject.Fault{{
		Rank: 0, Site: snap.Cut.Sites[0] + (total[0]-snap.Cut.Sites[0])/2, Bit: 17,
	}}}
	if !snap.Usable(plan) {
		t.Fatal("plan not usable from the midpoint cut")
	}
	ecfg := rcfg
	ecfg.CycleLimit = golden.Cycles * 4
	ecfg.Plan = plan
	want := condense(RunResumed(inst, ecfg, snap))

	reuse := NewReuse(2)
	dirty := rcfg
	dirty.Reuse = reuse
	dirty.Plan = inject.Plan{Faults: []inject.Fault{{Rank: 1, Site: 0, Bit: 60}}}
	dirty.CycleLimit = golden.Cycles * 4
	for i := 0; i < 2; i++ {
		Run(inst, dirty) // dirty the pooled state, possibly crashing ranks
	}
	pooled := ecfg
	pooled.Reuse = reuse
	for i := 0; i < 2; i++ {
		got := condense(RunResumed(inst, pooled, snap))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pooled resume %d diverged from fresh resume", i)
		}
	}
}
