package vm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/transform"
)

// buildExitProbe builds a single-process program whose quiesce points (its
// timestep boundaries) see every kind of state GoldenEqual compares: an
// output per step, a global array in the low extent, a frame-local slot in
// the stack extent and a heap allocation moving brk.
func buildExitProbe(steps int64) (prog *ir.Program, acc int64) {
	b := ir.NewBuilder()
	acc = b.Global("acc", 8)
	f := b.Func("main", 0, 0)
	loc := f.Local(2)
	s := f.NewReg()
	i := f.NewReg()
	heap := f.Alloc(ir.ImmI(16))
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Tick(ir.R(s))
		f.St(ir.R(f.Mul(ir.R(s), ir.ImmI(3))), ir.R(f.FrameAddr(loc)), ir.ImmI(1))
		f.St(ir.R(s), ir.R(heap), ir.ImmI(0))
		f.For(i, ir.ImmI(0), ir.ImmI(8), func() {
			old := f.Ld(ir.ImmI(acc), ir.R(i))
			f.St(ir.R(f.FAdd(ir.R(old), ir.ImmF(0.5))), ir.ImmI(acc), ir.R(i))
		})
		f.OutputI(ir.R(s))
	})
	f.Ret()
	return b.MustBuild(), acc
}

// stopAt is a hook that calls f at quiesce point seq and then ends the run
// there, the way the golden-equivalence early exit does.
type stopAt struct {
	seq   uint64
	f     func(v *VM)
	fired bool
}

func (h *stopAt) Quiesce(v *VM, seq uint64) bool {
	if seq != h.seq {
		return false
	}
	h.f(v)
	h.fired = true
	return true
}

// TestGoldenEqualRejectsEachDifference pins GoldenEqual's exactness: a
// second fault-free run of the program, paused at the quiesce point a
// snapshot was taken at, is golden-equal, and each single difference below
// makes it not — except an injection temporary, which is dead there, a
// stale shadow in clean mode, and a stored zero in an unbacked page.
func TestGoldenEqualRejectsEachDifference(t *testing.T) {
	prog, acc := buildExitProbe(8)
	inst := instrumentT(t, prog)
	const seq = 4
	snap, _ := snapAt(t, inst, seq, 0)

	top := func(v *VM) *frame { return &v.frames[len(v.frames)-1] }
	primary := func(v *VM) *uint64 { return &v.regs[top(v).regBase] }
	shadow := func(v *VM) *uint64 { return &v.regs[top(v).regBase+1] }
	stackWord := func(v *VM) int64 { return top(v).frameBase + 1 }
	flip := func(v *VM, addr int64) {
		w, ok := v.mem.Read(addr)
		if !ok || !v.mem.Write(addr, w^1) {
			t.Fatalf("address %d is not accessible", addr)
		}
	}
	const gapAddr = MemWords / 2

	for _, c := range []struct {
		name   string
		cfg    Config
		mutate func(v *VM)
		want   bool
	}{
		{name: "unchanged", mutate: func(v *VM) {}, want: true},
		{name: "primary register bit", mutate: func(v *VM) { *primary(v) ^= 1 << 40 }},
		{name: "shadow in full mode", mutate: func(v *VM) { v.toFullMode(); *shadow(v) ^= 1 }},
		{name: "shadows rebuilt in full mode", mutate: func(v *VM) { v.toFullMode() }, want: true},
		{name: "stale shadow in clean mode", mutate: func(v *VM) {
			if !v.clean {
				t.Fatal("fault-free run is not in clean mode")
			}
			*shadow(v) ^= 1
		}, want: true},
		{name: "injection temporary", mutate: func(v *VM) {
			fr := top(v)
			if fr.fn.NumRegs <= fr.fn.PairedRegs {
				t.Fatal("main has no injection temporaries")
			}
			v.regs[fr.regBase+fr.fn.PairedRegs] ^= 1 << 62
		}, want: true},
		{name: "non-empty table", mutate: func(v *VM) { v.table.Observe(acc, 1, 2) }},
		{name: "planned fault not fired",
			cfg:    Config{Injector: inject.NewRankInjector(inject.Plan{Faults: []inject.Fault{{Site: 1 << 40}}}, 0)},
			mutate: func(v *VM) {}},
		{name: "memory word in lo", mutate: func(v *VM) { flip(v, acc+3) }},
		{name: "memory word in the stack", mutate: func(v *VM) {
			if len(v.mem.stack) == 0 {
				t.Fatal("the stack extent is not backed")
			}
			flip(v, stackWord(v))
		}},
		{name: "memory word in a gap page", mutate: func(v *VM) { v.mem.Write(gapAddr, 7) }},
		{name: "zero in a gap page", mutate: func(v *VM) { v.mem.Write(gapAddr, 0) }, want: true},
		{name: "brk", mutate: func(v *VM) { v.mem.Alloc(1) }},
		{name: "sp", mutate: func(v *VM) { v.mem.sp-- }},
		{name: "top-frame pc", mutate: func(v *VM) { top(v).pc++ }},
		{name: "one output", mutate: func(v *VM) { v.outputs[0]++ }},
		{name: "cycles", mutate: func(v *VM) { v.cycles++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got bool
			h := &stopAt{seq: seq, f: func(v *VM) { c.mutate(v); got = v.GoldenEqual(snap) }}
			cfg := c.cfg
			cfg.Quiesce = h
			v := New(inst, cfg)
			if err := v.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !h.fired {
				t.Fatalf("quiesce point %d never fired", seq)
			}
			if got != c.want {
				t.Errorf("GoldenEqual = %v, want %v", got, c.want)
			}
			// The hook ended the run at the cut.
			if v.Cycles() != snap.Cycles() && c.name != "cycles" {
				t.Errorf("stopped run at cycle %d, cut at %d", v.Cycles(), snap.Cycles())
			}
		})
	}
}

// TestInjectionTemporariesDeadAtQuiescePoints is the static half of
// GoldenEqual's license to skip injection temporaries: in every
// instrumented application, with and without selective protection, each
// read of a register at or above PairedRegs is preceded, inside its fim_inj
// group — the fim_injs and protection moves right before their consumer —
// by the instruction that writes it, and no branch lands between the two.
// A temporary is therefore never live across an instruction boundary
// outside a group, and a quiesce point, which follows a retiring
// intrinsic, is never inside one.
func TestInjectionTemporariesDeadAtQuiescePoints(t *testing.T) {
	for _, app := range apps.All() {
		prog, err := app.Build(app.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := transform.Instrument(prog, transform.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := transform.DefaultOptions()
		for s := 0; s < transform.CountStaticSites(plain); s += 3 {
			opts.Protect = append(opts.Protect, s)
		}
		protected, err := transform.Instrument(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []*ir.Program{plain, protected} {
			reads := 0
			for _, f := range inst.Funcs {
				reads += checkTemporariesDead(t, app.Name(), f)
			}
			if reads == 0 {
				t.Errorf("%s: no injection temporary is ever read", app.Name())
			}
		}
	}
}

// checkTemporariesDead checks f's code as
// TestInjectionTemporariesDeadAtQuiescePoints describes and returns how many temporary reads it checked.
func checkTemporariesDead(t *testing.T, app string, f *ir.Func) int {
	t.Helper()
	if f.PairedRegs == 0 {
		return 0
	}
	targets := map[int]bool{}
	for pc := range f.Code {
		switch f.Code[pc].Op {
		case ir.Jmp, ir.Bnz, ir.Bz:
			targets[int(f.Code[pc].Target)] = true
		}
	}
	inGroup := func(in *ir.Instr) bool {
		return in.Op == ir.FimInj || (in.Op == ir.Mov && in.Flags == 0 && int(in.Dst) >= f.PairedRegs)
	}
	reads := 0
	for pc := range f.Code {
		in := &f.Code[pc]
		ops := append([]ir.Operand{in.A, in.B, in.C, in.D}, in.Args...)
		for _, o := range ops {
			if !o.IsReg() || int(o.Reg) < f.PairedRegs {
				continue
			}
			reads++
			writer := -1
			for j := pc - 1; j >= 0 && inGroup(&f.Code[j]); j-- {
				if f.Code[j].Dst == o.Reg {
					writer = j
					break
				}
			}
			if writer < 0 {
				t.Errorf("%s %s pc %d (%v) reads temporary r%d its group does not write", app, f.Name, pc, in.Op, o.Reg)
				continue
			}
			for k := writer + 1; k <= pc; k++ {
				if targets[k] {
					t.Errorf("%s %s: a branch lands at pc %d, between the write of r%d at pc %d and its read at pc %d",
						app, f.Name, k, o.Reg, writer, pc)
				}
			}
		}
	}
	return reads
}
