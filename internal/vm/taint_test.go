package vm

import (
	"sync"
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
)

// siteFlipper flips one bit at one dynamic site (a minimal Injector).
type siteFlipper struct {
	site uint64
	bit  uint
	n    uint64
}

func (s *siteFlipper) OnSite(site uint64, val uint64) (uint64, bool) {
	s.n++
	if site == s.site {
		return val ^ (1 << s.bit), true
	}
	return val, false
}

// buildTaintProg builds `b = op(a, operandB)` and instruments it via the
// FPM pass; the single fim_inj site is the op's use of a.
func buildTaintProg(t *testing.T, op ir.Op, operandB int64) *ir.Program {
	t.Helper()
	b := ir.NewBuilder()
	aAddr := b.Global("a", 1)
	bAddr := b.Global("b", 1)
	b.GlobalInit("a", []uint64{19})
	f := b.Func("main", 0, 0)
	a := f.Load(ir.ImmI(aAddr))
	res := f.Bin(op, ir.R(a), ir.ImmI(operandB))
	f.Store(ir.R(res), ir.ImmI(bAddr))
	f.Ret()
	inst, err := transform.Instrument(b.MustBuild(), transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestTaintOverestimatesMaskedShift(t *testing.T) {
	// b = a >> 2 with a bit-1 flip: value identical (Table 1 row 4), so
	// the exact tracker records nothing — but taint marks the location.
	prog := buildTaintProg(t, ir.AShr, 2)
	v := New(prog, Config{Injector: &siteFlipper{site: 0, bit: 1}, TrackTaint: true})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Table().Len() != 0 {
		t.Errorf("exact tracker recorded %d locations, want 0 (masked)", v.Table().Len())
	}
	if v.TaintCML() != 1 {
		t.Errorf("taint = %d, want 1 (overestimate)", v.TaintCML())
	}
}

func TestTaintAgreesOnRealPropagation(t *testing.T) {
	// b = a + 5: both trackers must flag the store.
	prog := buildTaintProg(t, ir.Add, 5)
	v := New(prog, Config{Injector: &siteFlipper{site: 0, bit: 1}, TrackTaint: true})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Table().Len() != 1 || v.TaintCML() != 1 {
		t.Errorf("exact=%d taint=%d, want 1 and 1", v.Table().Len(), v.TaintCML())
	}
	if v.TaintPeak() != 1 {
		t.Errorf("taint peak = %d", v.TaintPeak())
	}
}

func TestTaintDisabledByDefault(t *testing.T) {
	prog := buildTaintProg(t, ir.Add, 5)
	v := New(prog, Config{Injector: &siteFlipper{site: 0, bit: 1}})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.TaintCML() != 0 || v.TaintPeak() != 0 {
		t.Error("taint counters nonzero with tracking disabled")
	}
}

func TestMemFaultAppliesAndTracks(t *testing.T) {
	b := ir.NewBuilder()
	g := b.Global("g", 8)
	b.GlobalInit("g", []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	// Work for the fault's cycle to fall into.
	f.For(i, ir.ImmI(0), ir.ImmI(3000), func() {})
	sum := f.CI(0)
	f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
		f.Op3(ir.Add, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(g), ir.R(i))))
	})
	f.OutputI(ir.R(sum))
	f.Ret()
	prog := b.MustBuild()

	clean := New(prog, Config{})
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	v := New(prog, Config{
		MemFaults:  []MemFault{{AtCycle: 10, AddrUnit: 0.5, Bit: 4}},
		TrackTaint: true,
	})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.MemFaultsApplied() != 1 {
		t.Fatalf("applied = %d", v.MemFaultsApplied())
	}
	if !v.Table().Ever() {
		t.Error("memory fault not recorded in contamination table")
	}
	if v.TaintCML() == 0 {
		t.Error("memory fault not recorded in taint set")
	}
	if v.Outputs()[0] == clean.Outputs()[0] {
		t.Error("flipped word did not change the checksum")
	}
	// The contamination table must hold the pristine value.
	for _, addr := range v.Table().Addresses() {
		w, _ := v.Mem().Read(addr)
		pv, _ := v.Table().Pristine(addr)
		cw, _ := clean.Mem().Read(addr)
		if pv != cw {
			t.Errorf("addr %d: pristine %d, clean run has %d", addr, pv, cw)
		}
		if pv == w {
			t.Errorf("addr %d: table entry equals memory", addr)
		}
	}
}

func TestMemFaultAddrUnitClamping(t *testing.T) {
	b := ir.NewBuilder()
	b.Global("g", 4)
	f := b.Func("main", 0, 0)
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(3000), func() {})
	f.Ret()
	prog := b.MustBuild()
	for _, unit := range []float64{-1, 0, 0.999, 2} {
		v := New(prog, Config{MemFaults: []MemFault{{AtCycle: 1, AddrUnit: unit, Bit: 0}}})
		if err := v.Run(); err != nil {
			t.Fatalf("unit %v: %v", unit, err)
		}
		if v.MemFaultsApplied() != 1 {
			t.Errorf("unit %v: applied = %d", unit, v.MemFaultsApplied())
		}
	}
}

// TestMemFaultInTickFreeTailApplies: a fault due five cycles before the end
// of a run, after its last timestep boundary and its last 1024-cycle
// housekeeping point, still fires.
func TestMemFaultInTickFreeTailApplies(t *testing.T) {
	prog := instrumentT(t, buildTickedAccum(40))
	golden := New(prog, Config{})
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	at := golden.Cycles() - 5
	if golden.Cycles()%1024 <= 5 {
		t.Fatalf("%d cycles: the fault cycle is not past the last housekeeping point", golden.Cycles())
	}
	rec := &tickRecorder{}
	v := New(prog, Config{Tracer: rec, MemFaults: []MemFault{{AtCycle: at, AddrUnit: 0.5, Bit: 40}}})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.last >= at {
		t.Fatalf("last tick at cycle %d, not before the fault at %d", rec.last, at)
	}
	if v.MemFaultsApplied() != 1 || !v.Table().Ever() {
		t.Errorf("fault at cycle %d of %d: applied %d, contaminated %v",
			at, golden.Cycles(), v.MemFaultsApplied(), v.Table().Ever())
	}
}

// tickRecorder remembers the cycle of the last timestep boundary.
type tickRecorder struct{ last uint64 }

func (r *tickRecorder) OnCMLChange(uint64, int)       {}
func (r *tickRecorder) OnTick(cycles uint64, _ int64) { r.last = cycles }

// TestObservedArrayOnlyForAblations: only a VM running an ablation builds
// the observed code array, and such a VM never runs the clean interpreter.
func TestObservedArrayOnlyForAblations(t *testing.T) {
	prog := instrumentT(t, buildTickedAccum(6)) // fresh program: no decode cached yet
	plan := func() Injector {
		return inject.NewRankInjector(inject.Plan{Faults: []inject.Fault{{Site: 40, Bit: 3}}}, 0)
	}
	plain := New(prog, Config{Injector: plan()})
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if !plain.cleanOK {
		t.Fatal("plain VM is not clean-eligible: the clean-mode leg is vacuous")
	}
	for _, df := range plain.dprog.funcs {
		if df.observed != nil {
			t.Fatalf("%s: observed array built without an ablation", df.fn.Name)
		}
	}
	for _, cfg := range []Config{
		{Injector: plan(), TrackTaint: true},
		{Injector: plan(), MemFaults: []MemFault{{AtCycle: 100, AddrUnit: 0.5, Bit: 2}}},
	} {
		v := New(prog, cfg)
		if v.cleanOK || v.clean {
			t.Errorf("taint=%v memfaults=%d: clean mode allowed", cfg.TrackTaint, len(cfg.MemFaults))
		}
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if v.clean {
			t.Errorf("taint=%v memfaults=%d: entered clean mode", cfg.TrackTaint, len(cfg.MemFaults))
		}
		for _, df := range v.dprog.funcs {
			if len(df.observed) != len(df.code) {
				t.Fatalf("%s: observed array has %d of %d pcs", df.fn.Name, len(df.observed), len(df.code))
			}
		}
	}
}

// TestObservedArrayConcurrentFirstUse: ablation VMs built at once on one
// decoded program share the lazily built observed array (run with -race).
func TestObservedArrayConcurrentFirstUse(t *testing.T) {
	prog := instrumentT(t, buildTickedAccum(4))
	decodedOf(prog) // one shared decode; its observed array is not built yet
	peaks := make([]int, 4)
	var wg sync.WaitGroup
	for i := range peaks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := New(prog, Config{Injector: &siteFlipper{site: 30, bit: 2}, TrackTaint: true})
			if err := v.Run(); err != nil {
				t.Error(err)
				return
			}
			peaks[i] = v.TaintPeak()
		}()
	}
	wg.Wait()
	for i, p := range peaks {
		if p != peaks[0] || p == 0 {
			t.Errorf("VM %d: taint peak %d, VM 0 %d", i, p, peaks[0])
		}
	}
}
