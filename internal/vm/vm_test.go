package vm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
)

// runMain builds the program, runs it with cfg, and returns the VM and error.
func runProg(t *testing.T, prog *ir.Program, cfg Config) (*VM, error) {
	t.Helper()
	v := New(prog, cfg)
	err := v.Run()
	return v, err
}

func mustOutputs(t *testing.T, prog *ir.Program) []float64 {
	t.Helper()
	v, err := runProg(t, prog, Config{})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return v.Outputs()
}

func TestArithmeticInteger(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.OutputI(ir.R(f.Add(ir.ImmI(2), ir.ImmI(3))))
	f.OutputI(ir.R(f.Sub(ir.ImmI(2), ir.ImmI(5))))
	f.OutputI(ir.R(f.Mul(ir.ImmI(-4), ir.ImmI(6))))
	f.OutputI(ir.R(f.SDiv(ir.ImmI(-7), ir.ImmI(2))))
	f.OutputI(ir.R(f.SRem(ir.ImmI(-7), ir.ImmI(2))))
	f.OutputI(ir.R(f.Shl(ir.ImmI(3), ir.ImmI(4))))
	f.OutputI(ir.R(f.LShr(ir.ImmI(-1), ir.ImmI(60))))
	f.OutputI(ir.R(f.AShr(ir.ImmI(-16), ir.ImmI(2))))
	f.OutputI(ir.R(f.And(ir.ImmI(0b1100), ir.ImmI(0b1010))))
	f.OutputI(ir.R(f.Or(ir.ImmI(0b1100), ir.ImmI(0b1010))))
	f.OutputI(ir.R(f.Xor(ir.ImmI(0b1100), ir.ImmI(0b1010))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	want := []float64{5, -3, -24, -3, -1, 48, 15, -4, 8, 14, 6}
	if len(got) != len(want) {
		t.Fatalf("outputs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestArithmeticFloat(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.OutputF(ir.R(f.FAdd(ir.ImmF(1.5), ir.ImmF(2.25))))
	f.OutputF(ir.R(f.FSub(ir.ImmF(1), ir.ImmF(0.5))))
	f.OutputF(ir.R(f.FMul(ir.ImmF(3), ir.ImmF(-2))))
	f.OutputF(ir.R(f.FDiv(ir.ImmF(1), ir.ImmF(4))))
	f.OutputF(ir.R(f.SIToFP(ir.ImmI(-3))))
	f.OutputI(ir.R(f.FPToSI(ir.ImmF(3.9))))
	f.OutputI(ir.R(f.FPToSI(ir.ImmF(-3.9))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	want := []float64{3.75, 0.5, -6, 0.25, -3, 3, -3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFPToSIHardwareSemantics(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	nan := f.FDiv(ir.ImmF(0), ir.ImmF(0))
	f.OutputI(ir.R(f.FPToSI(ir.R(nan))))
	inf := f.FDiv(ir.ImmF(1), ir.ImmF(0))
	f.OutputI(ir.R(f.FPToSI(ir.R(inf))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	for i, g := range got {
		if g != float64(math.MinInt64) {
			t.Errorf("conversion %d = %v, want INT64_MIN", i, g)
		}
	}
}

func TestComparisonsAndSelect(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.OutputI(ir.R(f.ICmp(ir.ICmpSLT, ir.ImmI(-1), ir.ImmI(1))))
	f.OutputI(ir.R(f.ICmp(ir.ICmpSGE, ir.ImmI(5), ir.ImmI(5))))
	f.OutputI(ir.R(f.ICmp(ir.ICmpEQ, ir.ImmI(3), ir.ImmI(4))))
	f.OutputI(ir.R(f.FCmp(ir.FCmpLT, ir.ImmF(1.5), ir.ImmF(2))))
	f.OutputI(ir.R(f.FCmp(ir.FCmpNE, ir.ImmF(1), ir.ImmF(1))))
	f.OutputI(ir.R(f.Select(ir.ImmI(1), ir.ImmI(10), ir.ImmI(20))))
	f.OutputI(ir.R(f.Select(ir.ImmI(0), ir.ImmI(10), ir.ImmI(20))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	want := []float64{1, 1, 0, 1, 0, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGlobalsLoadStore(t *testing.T) {
	b := ir.NewBuilder()
	g := b.Global("v", 3)
	b.GlobalInitF("v", []float64{1.5, 2.5, 3.5})
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	sum := f.CF(0)
	f.For(i, ir.ImmI(0), ir.ImmI(3), func() {
		f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(g), ir.R(i))))
	})
	f.OutputF(ir.R(sum))
	f.St(ir.R(sum), ir.ImmI(g), ir.ImmI(0))
	f.OutputF(ir.R(f.Ld(ir.ImmI(g), ir.ImmI(0))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	if got[0] != 7.5 || got[1] != 7.5 {
		t.Errorf("outputs = %v, want [7.5 7.5]", got)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	b := ir.NewBuilder()
	main := b.Func("main", 0, 0)
	r := main.NewReg()
	main.Call("fib", []ir.Reg{r}, ir.ImmI(12))
	main.OutputI(ir.R(r))
	main.Ret()

	fib := b.Func("fib", 1, 1)
	n := fib.Param(0)
	fib.IfElse(ir.R(fib.ICmp(ir.ICmpSLE, ir.R(n), ir.ImmI(1))),
		func() { fib.Ret(ir.R(n)) },
		func() {
			a, bb := fib.NewReg(), fib.NewReg()
			fib.Call("fib", []ir.Reg{a}, ir.R(fib.Sub(ir.R(n), ir.ImmI(1))))
			fib.Call("fib", []ir.Reg{bb}, ir.R(fib.Sub(ir.R(n), ir.ImmI(2))))
			fib.Ret(ir.R(fib.Add(ir.R(a), ir.R(bb))))
		})
	// Unreachable terminator to satisfy validation.
	fib.Ret(ir.ImmI(0))
	got := mustOutputs(t, b.MustBuild())
	if got[0] != 144 {
		t.Errorf("fib(12) = %v, want 144", got[0])
	}
}

func TestFrameLocals(t *testing.T) {
	b := ir.NewBuilder()
	main := b.Func("main", 0, 0)
	r := main.NewReg()
	main.Call("work", []ir.Reg{r}, ir.ImmI(7))
	main.OutputI(ir.R(r))
	main.Ret()

	work := b.Func("work", 1, 1)
	off := work.Local(4)
	base := work.FrameAddr(off)
	i := work.NewReg()
	work.For(i, ir.ImmI(0), ir.ImmI(4), func() {
		work.St(ir.R(work.Mul(ir.R(work.Param(0)), ir.R(i))), ir.R(base), ir.R(i))
	})
	sum := work.CI(0)
	work.For(i, ir.ImmI(0), ir.ImmI(4), func() {
		work.Op3(ir.Add, sum, ir.R(sum), ir.R(work.Ld(ir.R(base), ir.R(i))))
	})
	work.Ret(ir.R(sum))
	got := mustOutputs(t, b.MustBuild())
	if got[0] != 42 { // 7*(0+1+2+3)
		t.Errorf("result = %v, want 42", got[0])
	}
}

func TestAllocAndHeap(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	p := f.Alloc(ir.ImmI(10))
	f.St(ir.ImmI(99), ir.R(p), ir.ImmI(9))
	f.OutputI(ir.R(f.Ld(ir.R(p), ir.ImmI(9))))
	q := f.Alloc(ir.ImmI(5))
	f.OutputI(ir.R(f.Sub(ir.R(q), ir.R(p)))) // contiguous bump: q = p+10
	f.Ret()
	v, err := runProg(t, b.MustBuild(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := v.Outputs()
	if got[0] != 99 || got[1] != 10 {
		t.Errorf("outputs = %v, want [99 10]", got)
	}
	if v.Mem().HeapUsed() != 15 {
		t.Errorf("heap used = %d, want 15", v.Mem().HeapUsed())
	}
}

func TestMathIntrinsics(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.OutputF(ir.R(f.Sqrt(ir.ImmF(9))))
	f.OutputF(ir.R(f.Fabs(ir.ImmF(-2.5))))
	f.OutputF(ir.R(f.Floor(ir.ImmF(2.9))))
	f.OutputF(ir.R(f.Pow(ir.ImmF(2), ir.ImmF(10))))
	f.OutputF(ir.R(f.FMin(ir.ImmF(3), ir.ImmF(-1))))
	f.OutputF(ir.R(f.FMax(ir.ImmF(3), ir.ImmF(-1))))
	f.OutputF(ir.R(f.Exp(ir.ImmF(0))))
	f.OutputF(ir.R(f.Log(ir.ImmF(1))))
	f.OutputF(ir.R(f.Sin(ir.ImmF(0))))
	f.OutputF(ir.R(f.Cos(ir.ImmF(0))))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	want := []float64{3, 2.5, 2, 1024, -1, 3, 1, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func trapKindOf(t *testing.T, prog *ir.Program, cfg Config) TrapKind {
	t.Helper()
	_, err := runProg(t, prog, cfg)
	if err == nil {
		t.Fatal("expected trap, run succeeded")
	}
	tr := AsTrap(err)
	if tr == nil {
		t.Fatalf("expected *Trap, got %T: %v", err, err)
	}
	return tr.Kind
}

func TestTrapNullAccess(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.Load(ir.ImmI(0))
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapNull {
		t.Errorf("kind = %v, want TrapNull", k)
	}
}

func TestTrapOOB(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.Store(ir.ImmI(1), ir.ImmI(1<<40))
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapOOB {
		t.Errorf("kind = %v, want TrapOOB", k)
	}
}

func TestTrapDivZero(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	z := f.CI(0)
	f.SDiv(ir.ImmI(1), ir.R(z))
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapDivZero {
		t.Errorf("kind = %v, want TrapDivZero", k)
	}
}

func TestTrapDivOverflow(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.SDiv(ir.ImmI(math.MinInt64), ir.ImmI(-1))
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapDivOverflow {
		t.Errorf("kind = %v, want TrapDivOverflow", k)
	}
}

func TestTrapCycleLimit(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	l := f.NewLabel()
	f.Bind(l)
	f.Jmp(l) // infinite loop
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{CycleLimit: 10000}); k != TrapCycleLimit {
		t.Errorf("kind = %v, want TrapCycleLimit", k)
	}
}

func TestTrapHeapExhausted(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.Alloc(ir.ImmI(1 << 40))
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapHeapExhausted {
		t.Errorf("kind = %v, want TrapHeapExhausted", k)
	}
}

func TestTrapStackOverflowDeepRecursion(t *testing.T) {
	b := ir.NewBuilder()
	main := b.Func("main", 0, 0)
	main.Call("down", nil, ir.ImmI(1<<40))
	main.Ret()
	down := b.Func("down", 1, 0)
	down.Local(64)
	down.Call("down", nil, ir.R(down.Sub(ir.R(down.Param(0)), ir.ImmI(1))))
	down.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{}); k != TrapStackOverflow {
		t.Errorf("kind = %v, want TrapStackOverflow", k)
	}
}

func TestOutputOverflow(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(100), func() { f.OutputI(ir.R(i)) })
	f.Ret()
	if k := trapKindOf(t, b.MustBuild(), Config{OutputLimit: 10}); k != TrapOutputOverflow {
		t.Errorf("kind = %v, want TrapOutputOverflow", k)
	}
}

func TestPrintIntrinsics(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.Intrin(ir.IntrinPrintI, nil, ir.ImmI(42))
	f.Intrin(ir.IntrinPrintF, nil, ir.ImmF(1.5))
	f.Ret()
	var sb strings.Builder
	v := New(b.MustBuild(), Config{Stdout: &sb})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "42\n1.5\n" {
		t.Errorf("stdout = %q", sb.String())
	}
}

func TestTicksAndIterations(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(5), func() { f.Tick(ir.R(i)) })
	f.Iterations(ir.ImmI(17))
	f.Ret()
	v, err := runProg(t, b.MustBuild(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Ticks() != 5 {
		t.Errorf("ticks = %d, want 5", v.Ticks())
	}
	if v.Iterations() != 17 {
		t.Errorf("iterations = %d, want 17", v.Iterations())
	}
}

func TestCyclesDeterministic(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	sum := f.CI(0)
	f.For(i, ir.ImmI(0), ir.ImmI(1000), func() {
		f.Op3(ir.Add, sum, ir.R(sum), ir.R(i))
	})
	f.OutputI(ir.R(sum))
	f.Ret()
	prog := b.MustBuild()
	v1, err1 := runProg(t, prog, Config{})
	v2, err2 := runProg(t, prog, Config{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1.Cycles() != v2.Cycles() {
		t.Errorf("cycles differ: %d vs %d", v1.Cycles(), v2.Cycles())
	}
	if v1.Outputs()[0] != 499500 {
		t.Errorf("sum = %v", v1.Outputs()[0])
	}
	if v1.Cycles() == 0 {
		t.Error("no cycles accounted")
	}
}

func TestMPIIntrinsicsWithoutEndpoint(t *testing.T) {
	// Rank/Size degrade gracefully to 0/1 without an endpoint.
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	f.OutputI(ir.R(f.MPIRank()))
	f.OutputI(ir.R(f.MPISize()))
	f.Ret()
	got := mustOutputs(t, b.MustBuild())
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("rank/size = %v, want [0 1]", got)
	}
	// Send without endpoint is invalid.
	b2 := ir.NewBuilder()
	f2 := b2.Func("main", 0, 0)
	f2.MPISend(ir.ImmI(1), ir.ImmI(0), ir.ImmI(0), ir.ImmI(0))
	f2.Ret()
	if k := trapKindOf(t, b2.MustBuild(), Config{}); k != TrapInvalid {
		t.Errorf("kind = %v, want TrapInvalid", k)
	}
}

func TestAbortFlagStopsRun(t *testing.T) {
	b := ir.NewBuilder()
	f := b.Func("main", 0, 0)
	l := f.NewLabel()
	f.Bind(l)
	f.Jmp(l)
	f.Ret()
	var flag AbortFlag
	flag.Raise()
	v := New(b.MustBuild(), Config{Abort: &flag})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapPeerFailure {
		t.Errorf("err = %v, want peer failure trap", err)
	}
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory(1024, 16)
	if m.Size() != 1024 {
		t.Errorf("size = %d", m.Size())
	}
	if _, ok := m.Read(0); ok {
		t.Error("null read allowed")
	}
	if ok := m.Write(1024, 1); ok {
		t.Error("oob write allowed")
	}
	if !m.Write(17, 5) {
		t.Error("valid write failed")
	}
	if w, ok := m.Read(17); !ok || w != 5 {
		t.Errorf("read = %v %v", w, ok)
	}
	base, ok := m.Alloc(8)
	if !ok || base != 17 {
		t.Errorf("alloc = %d %v, want 17", base, ok)
	}
	if m.AllocatedWords() != 24 {
		t.Errorf("allocated = %d, want 24", m.AllocatedWords())
	}
	fb, ok := m.PushFrame(16)
	if !ok || fb != 1024-16 {
		t.Errorf("frame = %d %v", fb, ok)
	}
	m.PopFrame(16)
	if _, ok := m.CopyOut(1000, 100); ok {
		t.Error("oob CopyOut allowed")
	}
	if m.CopyIn(1000, make([]uint64, 100)) {
		t.Error("oob CopyIn allowed")
	}
}

func TestFrameZeroedAcrossCalls(t *testing.T) {
	// A function writing its frame must not leak values into the next call.
	b := ir.NewBuilder()
	main := b.Func("main", 0, 0)
	r1, r2 := main.NewReg(), main.NewReg()
	main.Call("probe", []ir.Reg{r1}, ir.ImmI(9))
	main.Call("probe", []ir.Reg{r2}, ir.ImmI(0))
	main.OutputI(ir.R(r1))
	main.OutputI(ir.R(r2))
	main.Ret()

	probe := b.Func("probe", 1, 1)
	off := probe.Local(1)
	addr := probe.FrameAddr(off)
	// If the arg is nonzero, write it; either way return the local.
	probe.If(ir.R(probe.ICmp(ir.ICmpNE, ir.R(probe.Param(0)), ir.ImmI(0))), func() {
		probe.Store(ir.R(probe.Param(0)), ir.R(addr))
	})
	probe.Ret(ir.R(probe.Load(ir.R(addr))))

	got := mustOutputs(t, b.MustBuild())
	if got[0] != 9 || got[1] != 0 {
		t.Errorf("outputs = %v, want [9 0] (frame not zeroed)", got)
	}
}
