package vm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
)

// buildTickedAccum builds a single-process program: each of `steps`
// timesteps adds step-dependent values into an accumulator array and
// outputs the final checksum. All arithmetic flows through memory, so an
// injected fault contaminates the array and a rollback must undo it.
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

func TestCheckpointRollbackRecoversGoldenOutput(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(12))
	golden := New(inst, Config{})
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	sites := golden.Sites()
	if sites == 0 {
		t.Fatal("no sites")
	}
	// Find a fault that corrupts the output when unprotected, then show
	// the checkpointed run recovers the golden output.
	recovered := 0
	for seed := uint64(0); seed < 40 && recovered < 3; seed++ {
		plan := inject.Plan{Faults: []inject.Fault{{
			Site: (sites * seed) / 40, Bit: uint(50 - seed%20),
		}}}
		plain := New(inst, Config{Injector: inject.NewRankInjector(plan, 0)})
		if err := plain.Run(); err != nil {
			continue // crashed; rollback-on-trap is out of scope here
		}
		if len(plain.Outputs()) == 0 || plain.Outputs()[0] == golden.Outputs()[0] {
			continue // fault masked; uninteresting
		}
		prot := New(inst, Config{
			Injector:        inject.NewRankInjector(plan, 0),
			CheckpointEvery: 1,
			RollbackCML:     1, // any contamination triggers a rollback
		})
		if err := prot.Run(); err != nil {
			continue
		}
		if prot.Rollbacks() == 0 {
			continue // contamination stayed within tolerance
		}
		if got := prot.Outputs()[0]; got != golden.Outputs()[0] {
			t.Errorf("fault %v: rollback did not recover: got %v, want %v",
				plan.Faults[0], got, golden.Outputs()[0])
			continue
		}
		// Re-executed work must cost cycles.
		if prot.Cycles() <= golden.Cycles() {
			t.Errorf("fault %v: no re-execution cost: %d <= %d",
				plan.Faults[0], prot.Cycles(), golden.Cycles())
		}
		// History is preserved even though the state was cleaned.
		if !prot.Table().Ever() {
			t.Error("rollback erased contamination history")
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no corrupting fault found to exercise rollback")
	}
}

func TestCheckpointDisabledByDefault(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(5))
	v := New(inst, Config{})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Rollbacks() != 0 || v.snap != nil {
		t.Error("checkpointing active without configuration")
	}
}

func TestCheckpointFaultFreeIsHarmless(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(10))
	plain := New(inst, Config{})
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	ck := New(inst, Config{CheckpointEvery: 2, RollbackCML: 4})
	if err := ck.Run(); err != nil {
		t.Fatal(err)
	}
	if ck.Rollbacks() != 0 {
		t.Errorf("fault-free run rolled back %d times", ck.Rollbacks())
	}
	if ck.Outputs()[0] != plain.Outputs()[0] {
		t.Errorf("checkpointing changed the result: %v vs %v",
			ck.Outputs()[0], plain.Outputs()[0])
	}
	if ck.Cycles() != plain.Cycles() {
		t.Errorf("checkpointing changed cycle accounting: %d vs %d",
			ck.Cycles(), plain.Cycles())
	}
}

func TestCheckpointIntervalRespected(t *testing.T) {
	// With a high threshold nothing rolls back, but snapshots keep being
	// taken; nothing should corrupt determinism.
	inst := instrumentT(t, buildTickedAccum(9))
	a := New(inst, Config{CheckpointEvery: 3, RollbackCML: 1 << 30})
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	b := New(inst, Config{})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Outputs()[0] != b.Outputs()[0] {
		t.Error("snapshot-only run diverged")
	}
}

// unpaired returns a shallow clone of an instrumented program whose
// functions declare no register pairing. decodedOf lowers such a program
// without a clean code array, so every VM built on the clone runs the full
// dual-chain interpreter: the reference the clean-mode legs compare against.
func unpaired(p *ir.Program) *ir.Program {
	q := &ir.Program{ByName: p.ByName, Globals: p.Globals, GlobalWords: p.GlobalWords, Entry: p.Entry}
	for _, f := range p.Funcs {
		g := *f
		g.PairedRegs = 0
		q.Funcs = append(q.Funcs, &g)
	}
	return q
}

// TestCheckpointRollbackCleanMatchesFull: checkpoints record the
// interpreter mode, so a checkpointed VM may run clean. Every observable of
// such a run — including the rollbacks themselves — must equal the same run
// on the unpaired clone, which can only execute the full interpreter.
func TestCheckpointRollbackCleanMatchesFull(t *testing.T) {
	inst := instrumentT(t, buildTickedAccum(12))
	full := unpaired(inst)
	golden := New(inst, Config{})
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	sites := golden.Sites()
	rolledBack := 0
	for seed := uint64(0); seed < 40; seed++ {
		plan := inject.Plan{Faults: []inject.Fault{{
			Site: (sites * seed) / 40, Bit: uint(50 - seed%20),
		}}}
		run := func(prog *ir.Program) (*VM, error) {
			v := New(prog, Config{
				CycleLimit:      8 * golden.Cycles(), // a diverging run must fail, not hang
				Injector:        inject.NewRankInjector(plan, 0),
				CheckpointEvery: 2,
				RollbackCML:     1,
			})
			return v, v.Run()
		}
		before := CleanModeSwitches()
		c, cerr := run(inst)
		if !c.cleanOK || CleanModeSwitches() == before {
			t.Fatalf("fault %v: checkpointed VM never ran clean", plan.Faults[0])
		}
		f, ferr := run(full)
		if f.cleanOK {
			t.Fatal("unpaired clone is clean-eligible: differential is vacuous")
		}
		if fmt.Sprint(cerr) != fmt.Sprint(ferr) {
			t.Fatalf("fault %v: clean run ended %v, full run %v", plan.Faults[0], cerr, ferr)
		}
		if c.Rollbacks() > 0 {
			rolledBack++
		}
		got := []any{c.Outputs(), c.Cycles(), c.Sites(), c.InjectionCycles(), c.Iterations(), c.Ticks(),
			c.Rollbacks(), c.Table().Addresses(), c.Table().Peak(), c.Table().Ever()}
		want := []any{f.Outputs(), f.Cycles(), f.Sites(), f.InjectionCycles(), f.Iterations(), f.Ticks(),
			f.Rollbacks(), f.Table().Addresses(), f.Table().Peak(), f.Table().Ever()}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fault %v: clean checkpointed run diverged from full:\n got %v\nwant %v",
				plan.Faults[0], got, want)
		}
	}
	if rolledBack == 0 {
		t.Fatal("no fault triggered a rollback: differential is vacuous")
	}
}
