package vm

import (
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/transform"
)

// buildTickedAccum builds a single-process program: each of `steps`
// timesteps adds step-dependent values into an accumulator array and
// outputs the final checksum. All arithmetic flows through memory, so an
// injected fault contaminates the array.
func buildTickedAccum(steps int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 8)
	f := b.Func("main", 0, 0)
	s := f.NewReg()
	i := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Tick(ir.R(s))
		f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
			old := f.Ld(ir.ImmI(acc), ir.R(i))
			inc := f.FMul(ir.R(f.SIToFP(ir.R(f.Add(ir.R(s), ir.ImmI(1))))), ir.ImmF(0.25))
			f.St(ir.R(f.FAdd(ir.R(old), ir.R(inc))), ir.ImmI(acc), ir.R(i))
		})
	})
	sum := f.CF(0)
	f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
		f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(acc), ir.R(i))))
	})
	f.OutputF(ir.R(sum))
	f.Iterations(ir.ImmI(steps))
	f.Ret()
	return b.MustBuild()
}

func instrumentT(t *testing.T, prog *ir.Program) *ir.Program {
	t.Helper()
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// snapAt runs prog fault-free, capturing a snapshot (and the paired
// recorder snapshot) at quiesce point seq; the run continues to completion
// afterwards, so the captured state has been mutated past the cut — any
// aliasing between the snapshot and the live VM shows up as a diff later.
func snapAt(t *testing.T, prog *ir.Program, seq uint64, sampleEvery uint64) (*Snapshot, *trace.RecorderSnap) {
	t.Helper()
	var snap *Snapshot
	var recSnap *trace.RecorderSnap
	rec := &trace.Recorder{SampleEvery: sampleEvery}
	hook := quiesceFunc(func(v *VM, s uint64) {
		if s == seq {
			snap = v.Snapshot(snap)
			recSnap = rec.Snapshot(recSnap)
		}
	})
	v := New(prog, Config{Tracer: rec, Quiesce: hook})
	if err := v.Run(); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if snap == nil {
		t.Fatalf("quiesce point %d never fired", seq)
	}
	return snap, recSnap
}

type quiesceFunc func(v *VM, seq uint64)

func (f quiesceFunc) Quiesce(v *VM, seq uint64) bool { f(v, seq); return false }

// observe condenses the observables that must be byte-identical between a
// from-scratch run and a snapshot-forked run.
type observed struct {
	Outputs   []float64
	Cycles    uint64
	Sites     uint64
	Ticks     int64
	Iters     int64
	InjCycles []uint64
	TableLen  int
	TablePeak int
	Ever      bool
	Alloc     int64
	Points    []trace.Point
	TickPts   []trace.TickPoint
	Err       string
}

func observeRun(v *VM, rec *trace.Recorder, err error) observed {
	o := observed{
		Outputs:   append([]float64(nil), v.Outputs()...),
		Cycles:    v.Cycles(),
		Sites:     v.Sites(),
		Ticks:     v.Ticks(),
		Iters:     v.Iterations(),
		InjCycles: append([]uint64(nil), v.InjectionCycles()...),
		TableLen:  v.Table().Len(),
		TablePeak: v.Table().Peak(),
		Ever:      v.Table().Ever(),
		Alloc:     v.Mem().AllocatedWords(),
	}
	if rec != nil {
		rec.Finish(v.Cycles(), v.Table().Len())
		o.Points = append([]trace.Point(nil), rec.Points()...)
		o.TickPts = append([]trace.TickPoint(nil), rec.Ticks()...)
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

func runScratch(t *testing.T, prog *ir.Program, plan inject.Plan, sampleEvery uint64) observed {
	t.Helper()
	rec := &trace.Recorder{SampleEvery: sampleEvery}
	v := New(prog, Config{Tracer: rec, Injector: inject.NewRankInjector(plan, 0)})
	err := v.Run()
	return observeRun(v, rec, err)
}

func runForked(t *testing.T, prog *ir.Program, plan inject.Plan, snap *Snapshot, recSnap *trace.RecorderSnap) observed {
	t.Helper()
	rec := &trace.Recorder{}
	rec.RestoreSnap(recSnap, 0, 0)
	v := New(prog, Config{Tracer: rec, Injector: inject.NewRankInjector(plan, 0)})
	v.RestoreSnap(snap)
	err := v.Resume()
	return observeRun(v, rec, err)
}

// TestSnapshotRoundTripSingleProcess is the per-package round-trip property
// test: for a spread of faults at or after the cut, a run forked from the
// snapshot must match a from-scratch run of the same plan in every
// observable — and forking the same snapshot repeatedly must keep working
// (mutations through one fork must not leak into the snapshot).
func TestSnapshotRoundTripSingleProcess(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(12))
	const sampleEvery = 16
	snap, recSnap := snapAt(t, inst, 5, sampleEvery)
	if snap.Sites() == 0 {
		t.Fatal("cut at seq 5 saw no executed sites")
	}
	total := runScratch(t, inst, inject.Plan{}, sampleEvery).Sites

	// Fault-free fork must reproduce the golden tail.
	goldenRef := runScratch(t, inst, inject.Plan{}, sampleEvery)
	if got := runForked(t, inst, inject.Plan{}, snap, recSnap); !reflect.DeepEqual(got, goldenRef) {
		t.Errorf("fault-free fork diverged:\n got %+v\nwant %+v", got, goldenRef)
	}

	lo, hi := snap.Sites(), total
	for k := uint64(0); k < 8; k++ {
		site := lo + k*(hi-lo)/8
		plan := inject.Plan{Faults: []inject.Fault{{Site: site, Bit: uint(13 + 5*k)}}}
		want := runScratch(t, inst, plan, sampleEvery)
		got := runForked(t, inst, plan, snap, recSnap)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("site %d bit %d: forked run diverged:\n got %+v\nwant %+v",
				site, plan.Faults[0].Bit, got, want)
		}
	}
}

// TestSnapshotImmuneToForkMutation mutates a forked VM's state directly and
// checks a second fork of the same snapshot is unaffected — the
// shallow-copy-aliasing regression test.
func TestSnapshotImmuneToForkMutation(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(10))
	snap, recSnap := snapAt(t, inst, 3, 0)

	first := New(inst, Config{})
	first.RestoreSnap(snap)
	// Scribble over the fork's memory and contamination table.
	for addr := int64(1); addr < 64; addr++ {
		first.Mem().Write(addr, 0xDEAD)
		first.Table().Observe(addr, 0xDEAD, 0)
	}

	want := runForked(t, inst, inject.Plan{}, snap, recSnap)
	got := runForked(t, inst, inject.Plan{}, snap, recSnap)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second fork saw first fork's mutations:\n got %+v\nwant %+v", got, want)
	}
	if want.TableLen != 0 && want.Ever {
		t.Errorf("fault-free fork ended contaminated: %+v", want)
	}
}

// buildDeepRec builds a program whose only quiesce point sits at the bottom
// of a recursion `depth` frames deep, so the snapshot captures a tall frame
// stack mid-unwind.
func buildDeepRec(depth int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", 4)
	f := b.Func("rec", 1, 1)
	n := f.Param(0)
	res := f.NewReg()
	f.IfElse(ir.R(f.ICmp(ir.ICmpSLE, ir.R(n), ir.ImmI(0))), func() {
		f.Tick(ir.ImmI(0)) // quiesce at maximum depth
		f.Mov(res, ir.ImmI(1))
	}, func() {
		sub := f.NewReg()
		f.Call("rec", []ir.Reg{sub}, ir.R(f.Sub(ir.R(n), ir.ImmI(1))))
		// Touch memory on the way back up so the unwound frames do real
		// work a bad restore would corrupt.
		slot := f.And(ir.R(n), ir.ImmI(3))
		old := f.Ld(ir.ImmI(acc), ir.R(slot))
		f.St(ir.R(f.Add(ir.R(old), ir.R(sub))), ir.ImmI(acc), ir.R(slot))
		f.Mov(res, ir.R(f.Add(ir.R(sub), ir.R(n))))
	})
	f.Ret(ir.R(res))

	m := b.Func("main", 0, 0)
	out := m.NewReg()
	m.Call("rec", []ir.Reg{out}, ir.ImmI(depth))
	m.OutputI(ir.R(out))
	i := m.NewReg()
	m.For(i, ir.ImmI(0), ir.ImmI(4), func() {
		m.OutputI(ir.R(m.Ld(ir.ImmI(acc), ir.R(i))))
	})
	m.Ret()
	b.SetEntry("main")
	return b.MustBuild()
}

// TestSnapshotDeepRecursionFrameStack snapshots at the bottom of a
// 60-frame recursion and checks the forked run unwinds identically to a
// from-scratch run, with and without faults in the tail.
func TestSnapshotDeepRecursionFrameStack(t *testing.T) {
	inst := instrumentT(t, buildDeepRec(60))
	snap, recSnap := snapAt(t, inst, 0, 0)
	total := runScratch(t, inst, inject.Plan{}, 0).Sites

	want := runScratch(t, inst, inject.Plan{}, 0)
	got := runForked(t, inst, inject.Plan{}, snap, recSnap)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deep-recursion fork diverged:\n got %+v\nwant %+v", got, want)
	}
	if want.Outputs[0] == 0 {
		t.Fatal("recursion produced no result")
	}

	for k := uint64(0); k < 4; k++ {
		site := snap.Sites() + k*(total-snap.Sites())/4
		plan := inject.Plan{Faults: []inject.Fault{{Site: site, Bit: 7}}}
		w := runScratch(t, inst, plan, 0)
		g := runForked(t, inst, plan, snap, recSnap)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("site %d: forked unwind diverged:\n got %+v\nwant %+v", site, g, w)
		}
	}
}

// TestResumeWithoutRestoreErrors pins the Resume precondition.
func TestResumeWithoutRestoreErrors(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(3))
	v := New(inst, Config{})
	if err := v.Resume(); err == nil {
		t.Fatal("Resume on a fresh VM succeeded")
	}
}
