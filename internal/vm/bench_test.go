package vm

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
)

// Interpreter throughput benchmarks, per instruction class.

func benchLoop(b *testing.B, emit func(f *ir.FuncBuilder)) {
	bld := ir.NewBuilder()
	bld.Global("g", 64)
	f := bld.Func("main", 0, 0)
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(int64(b.N)), func() { emit(f) })
	f.Ret()
	prog := bld.MustBuild()
	b.ResetTimer()
	v := New(prog, Config{})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkInterpIntegerALU(b *testing.B) {
	benchLoop(b, func(f *ir.FuncBuilder) {
		x := f.Add(ir.ImmI(3), ir.ImmI(4))
		y := f.Mul(ir.R(x), ir.ImmI(5))
		f.Xor(ir.R(y), ir.R(x))
	})
}

func BenchmarkInterpFloatALU(b *testing.B) {
	benchLoop(b, func(f *ir.FuncBuilder) {
		x := f.FAdd(ir.ImmF(1.5), ir.ImmF(2.5))
		y := f.FMul(ir.R(x), ir.ImmF(0.5))
		f.FDiv(ir.R(y), ir.ImmF(3))
	})
}

func BenchmarkInterpLoadStore(b *testing.B) {
	benchLoop(b, func(f *ir.FuncBuilder) {
		v := f.Load(ir.ImmI(1))
		f.Store(ir.R(v), ir.ImmI(2))
	})
}

func BenchmarkInterpCallReturn(b *testing.B) {
	bld := ir.NewBuilder()
	callee := bld.Func("id", 1, 1)
	callee.Ret(ir.R(callee.Param(0)))
	f := bld.Func("main", 0, 0)
	i := f.NewReg()
	r := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(int64(b.N)), func() {
		f.Call("id", []ir.Reg{r}, ir.R(i))
	})
	f.Ret()
	bld.SetEntry("main")
	prog := bld.MustBuild()
	b.ResetTimer()
	v := New(prog, Config{})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInterpInstrumentedOverhead measures the wall-time cost of the
// dual-chain instrumentation relative to the plain program (the virtual
// cycle count is identical by design; real time is not), on the bench
// ladder's g[i&63] += 1 kernel: /plain runs the uninstrumented program,
// /clean the instrumented one fault-free (the clean-mode interpreter), and
// /dual the instrumented one with the index flipped at site 0, whose
// contamination keeps it in the full dual-chain interpreter.
func BenchmarkInterpInstrumentedOverhead(b *testing.B) {
	build := func(n int) *ir.Program {
		bld := ir.NewBuilder()
		g := bld.Global("g", 64)
		f := bld.Func("main", 0, 0)
		i := f.NewReg()
		f.For(i, ir.ImmI(0), ir.ImmI(int64(n)), func() {
			idx := f.And(ir.R(i), ir.ImmI(63))
			v := f.Ld(ir.ImmI(g), ir.R(idx))
			f.St(ir.R(f.FAdd(ir.R(v), ir.ImmF(1))), ir.ImmI(g), ir.R(idx))
		})
		f.Ret()
		return bld.MustBuild()
	}
	flip := inject.Plan{Faults: []inject.Fault{{Rank: 0, Site: 0, Bit: 1}}}
	for _, mode := range []struct {
		name         string
		instrumented bool
		plan         inject.Plan
	}{{"plain", false, inject.Plan{}}, {"clean", true, inject.Plan{}}, {"dual", true, flip}} {
		b.Run(mode.name, func(b *testing.B) {
			prog := build(b.N)
			if mode.instrumented {
				var err error
				if prog, err = transform.Instrument(prog, transform.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			decodedOf(prog)
			b.ResetTimer()
			v := New(prog, Config{Injector: inject.NewRankInjector(mode.plan, 0)})
			if err := v.Run(); err != nil {
				b.Fatal(err)
			}
			if contaminated := v.Table().Len() > 0; contaminated != (mode.name == "dual") {
				b.Fatalf("%s run ended with %d contaminated words", mode.name, v.Table().Len())
			}
		})
	}
}

// BenchmarkInterpDeepRecursion exercises the call path at depth: each
// iteration makes a 4000-deep recursive descent (just under the VM's
// 4096-frame limit), growing the register file and frame stack far past
// their initial sizes. It guards the pushFrame
// growth fix (one amortized-doubling grow + a single memclr of the callee
// window) and keeps the flat per-call overhead visible in CI.
func BenchmarkInterpDeepRecursion(b *testing.B) {
	const depth = 4000
	bld := ir.NewBuilder()
	down := bld.Func("down", 1, 1)
	n := down.Param(0)
	base := down.NewLabel()
	cond := down.ICmp(ir.ICmpSLT, ir.R(n), ir.ImmI(1))
	down.Bnz(ir.R(cond), base)
	sub := down.Sub(ir.R(n), ir.ImmI(1))
	rec := down.NewReg()
	down.Call("down", []ir.Reg{rec}, ir.R(sub))
	sum := down.Add(ir.R(rec), ir.ImmI(1))
	down.Ret(ir.R(sum))
	down.Bind(base)
	down.Ret(ir.ImmI(0))
	f := bld.Func("main", 0, 0)
	i := f.NewReg()
	r := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(int64(b.N)), func() {
		f.Call("down", []ir.Reg{r}, ir.ImmI(depth))
	})
	f.Ret()
	bld.SetEntry("main")
	prog := bld.MustBuild()
	b.ResetTimer()
	v := New(prog, Config{})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
}
