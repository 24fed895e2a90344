// Package transform implements the FPM compiler pass of the paper (§3.2,
// Fig. 3). It rewrites a plain IR program into the dual-chain instrumented
// form:
//
//   - every virtual register r gains a shadow register holding the pristine
//     value the fault-free execution would have produced;
//   - every value-producing instruction is replicated: the primary copy
//     computes with potentially-corrupted operands, the secondary copy
//     (FlagSecondary) recomputes with pristine operands;
//   - register source operands of injectable instructions (arithmetic and
//     load/store by default) are routed through fim_inj, the LLFI++
//     injection point;
//   - loads gain an fpm_fetch that obtains the pristine value of the loaded
//     location from the contamination table;
//   - stores become fpm_store, which writes the primary value and compares
//     it against the pristine value to update the contamination table,
//     handling corrupted store addresses (the "duplicate effect");
//   - function signatures are doubled (primary and shadow for every
//     parameter and result), the paper's "extra parameter for each input
//     parameter" and two-field return struct;
//   - pure library calls (math intrinsics) are executed twice, once per
//     chain; impure intrinsics execute once on the primary chain and copy
//     their results to the shadow registers.
//
// Register mapping: original register r maps to primary register 2r and
// shadow register 2r+1, so interleaved argument and result lists line up
// with the doubled parameter counts without any per-function remapping
// table.
package transform

import (
	"fmt"

	"repro/internal/ir"
)

// Options configures the pass.
type Options struct {
	// InjectClasses selects which original instruction classes receive
	// fim_inj sites on their register source operands. The paper injects
	// into arithmetic and load/store instructions (§2); its experiments
	// use the arithmetic class (§4.2).
	InjectClasses ir.Class

	// Protect lists static fim_inj site ordinals (the value Instrument
	// stamps into each fim_inj's Target, also the index into the SiteInfo
	// table) whose injected operand is restored from its source register
	// immediately after the injection point. A flip at a protected site is
	// corrected before its consumer reads it, at the cost of one extra
	// application cycle per dynamic execution of the site — the
	// selective-protection scenario of "Not All Errors Are Equal".
	// Protection never changes the number or order of fim_inj sites, so
	// injection plans drawn from a given seed target the same sites in the
	// protected and unprotected programs.
	Protect []int
}

// DefaultOptions matches the paper's experimental setup: injection sites on
// arithmetic instructions only.
func DefaultOptions() Options {
	return Options{InjectClasses: ir.ClassArith}
}

// prim maps an original register to its primary instrumented register.
func prim(r ir.Reg) ir.Reg { return 2 * r }

// shad maps an original register to its shadow (pristine) register.
func shad(r ir.Reg) ir.Reg { return 2*r + 1 }

func primOp(o ir.Operand) ir.Operand {
	if o.IsReg() {
		return ir.R(prim(o.Reg))
	}
	return o
}

func shadOp(o ir.Operand) ir.Operand {
	if o.IsReg() {
		return ir.R(shad(o.Reg))
	}
	return o
}

// SiteInfo describes one static fim_inj site, indexed by the global
// ordinal Instrument stamps into the fim_inj's Target field. The table is a
// pure function of (program, InjectClasses) — Protect inserts correction
// moves but never adds, removes, or reorders sites — so baseline and
// protected campaigns agree on every ordinal.
type SiteInfo struct {
	// Func is the name of the containing function.
	Func string
	// Index is the site's ordinal within the function.
	Index int
	// Class is the injection class of the consuming instruction, recorded
	// at rewrite time (runtime scanning would misattribute protected sites
	// to their correction move).
	Class ir.Class
}

// Instrument applies the FPM pass to prog and returns the instrumented
// program. The input program is not modified.
func Instrument(prog *ir.Program, opts Options) (*ir.Program, error) {
	p, _, err := InstrumentSites(prog, opts)
	return p, err
}

// InstrumentSites is Instrument, additionally returning the static site
// table indexed by the global fim_inj ordinal.
func InstrumentSites(prog *ir.Program, opts Options) (*ir.Program, []SiteInfo, error) {
	out := &ir.Program{
		ByName:      make(map[string]int, len(prog.ByName)),
		Globals:     append([]ir.Global(nil), prog.Globals...),
		GlobalWords: prog.GlobalWords,
		Entry:       prog.Entry,
	}
	for name, idx := range prog.ByName {
		out.ByName[name] = idx
	}
	protect := make(map[int]bool, len(opts.Protect))
	for _, s := range opts.Protect {
		protect[s] = true
	}
	var sites []SiteInfo
	for _, f := range prog.Funcs {
		nf, err := instrumentFunc(f, opts, &sites, protect)
		if err != nil {
			return nil, nil, fmt.Errorf("transform: func %q: %w", f.Name, err)
		}
		out.Funcs = append(out.Funcs, nf)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("transform: instrumented program invalid: %w", err)
	}
	return out, sites, nil
}

// MustInstrument is Instrument with the default options, panicking on
// error; for statically known-good app programs.
func MustInstrument(prog *ir.Program) *ir.Program {
	p, err := Instrument(prog, DefaultOptions())
	if err != nil {
		panic(err)
	}
	return p
}

type funcRewriter struct {
	opts    Options
	in      *ir.Func
	out     *ir.Func
	nextTmp ir.Reg
	// pcMap maps original pc -> first instrumented pc of that
	// instruction, for branch target fixup.
	pcMap []int
	// branchFix lists instrumented pcs whose Target is an original pc.
	branchFix []int
	// sites is the program-wide static site table; len(*sites) is the next
	// global ordinal. funcBase is its length when this function started.
	sites    *[]SiteInfo
	funcBase int
	protect  map[int]bool
}

func instrumentFunc(f *ir.Func, opts Options, sites *[]SiteInfo, protect map[int]bool) (*ir.Func, error) {
	rw := &funcRewriter{
		opts: opts,
		in:   f,
		out: &ir.Func{
			Name:       f.Name,
			NumParams:  2 * f.NumParams,
			NumRets:    2 * f.NumRets,
			Frame:      f.Frame,
			PairedRegs: 2 * f.NumRegs,
		},
		nextTmp:  ir.Reg(2 * f.NumRegs),
		pcMap:    make([]int, len(f.Code)),
		sites:    sites,
		funcBase: len(*sites),
		protect:  protect,
	}
	for pc := range f.Code {
		rw.pcMap[pc] = len(rw.out.Code)
		if err := rw.rewrite(&f.Code[pc]); err != nil {
			return nil, fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	for _, pc := range rw.branchFix {
		orig := rw.out.Code[pc].Target
		if int(orig) >= len(rw.pcMap) {
			return nil, fmt.Errorf("branch target %d out of range", orig)
		}
		rw.out.Code[pc].Target = int32(rw.pcMap[orig])
	}
	rw.out.NumRegs = int(rw.nextTmp)
	return rw.out, nil
}

func (rw *funcRewriter) emit(in ir.Instr) int {
	rw.out.Code = append(rw.out.Code, in)
	return len(rw.out.Code) - 1
}

func (rw *funcRewriter) tmp() ir.Reg {
	t := rw.nextTmp
	rw.nextTmp++
	return t
}

// inj routes a primary operand through fim_inj when the enclosing
// instruction class is injectable and the operand is a register. It returns
// the operand the primary instruction should use. Each emitted fim_inj
// carries its global static ordinal in Target (unused by execution, read by
// the site-map recorder) and appends its SiteInfo to the pass-wide table.
func (rw *funcRewriter) inj(class ir.Class, o ir.Operand) ir.Operand {
	if !o.IsReg() || rw.opts.InjectClasses&class == 0 {
		return primOp(o)
	}
	ord := len(*rw.sites)
	*rw.sites = append(*rw.sites, SiteInfo{
		Func:  rw.in.Name,
		Index: ord - rw.funcBase,
		Class: class,
	})
	t := rw.tmp()
	rw.emit(ir.Instr{Op: ir.FimInj, Dst: t, A: primOp(o), Target: int32(ord)})
	if rw.protect[ord] {
		// Selective protection: rewrite the temporary from its (shadow-free)
		// source before the consumer reads it, correcting any flip here.
		rw.emit(ir.Instr{Op: ir.Mov, Dst: t, A: primOp(o)})
	}
	return ir.R(t)
}

func (rw *funcRewriter) rewrite(in *ir.Instr) error {
	class := ir.ClassOf(in.Op)
	switch in.Op {
	case ir.Nop:
		rw.emit(ir.Instr{Op: ir.Nop})

	case ir.ConstI, ir.ConstF, ir.Mov, ir.FrameAddr:
		rw.emit(ir.Instr{Op: in.Op, Dst: prim(in.Dst), A: primOp(in.A)})
		rw.emit(ir.Instr{Op: in.Op, Dst: shad(in.Dst), A: shadOp(in.A), Flags: ir.FlagSecondary})

	case ir.Add, ir.Sub, ir.Mul, ir.SDiv, ir.SRem, ir.Shl, ir.LShr, ir.AShr,
		ir.And, ir.Or, ir.Xor, ir.FAdd, ir.FSub, ir.FMul, ir.FDiv,
		ir.ICmpEQ, ir.ICmpNE, ir.ICmpSLT, ir.ICmpSLE, ir.ICmpSGT, ir.ICmpSGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		a := rw.inj(class, in.A)
		b := rw.inj(class, in.B)
		rw.emit(ir.Instr{Op: in.Op, Dst: prim(in.Dst), A: a, B: b, Flags: ir.FlagInjectable})
		rw.emit(ir.Instr{Op: in.Op, Dst: shad(in.Dst), A: shadOp(in.A), B: shadOp(in.B), Flags: ir.FlagSecondary})

	case ir.SIToFP, ir.FPToSI:
		a := rw.inj(class, in.A)
		rw.emit(ir.Instr{Op: in.Op, Dst: prim(in.Dst), A: a, Flags: ir.FlagInjectable})
		rw.emit(ir.Instr{Op: in.Op, Dst: shad(in.Dst), A: shadOp(in.A), Flags: ir.FlagSecondary})

	case ir.Select:
		c := rw.inj(class, in.A)
		a := rw.inj(class, in.B)
		b := rw.inj(class, in.C)
		rw.emit(ir.Instr{Op: ir.Select, Dst: prim(in.Dst), A: c, B: a, C: b, Flags: ir.FlagInjectable})
		rw.emit(ir.Instr{Op: ir.Select, Dst: shad(in.Dst), A: shadOp(in.A), B: shadOp(in.B), C: shadOp(in.C), Flags: ir.FlagSecondary})

	case ir.Load:
		a := rw.inj(class, in.A)
		rw.emit(ir.Instr{Op: ir.Load, Dst: prim(in.Dst), A: a, Flags: ir.FlagInjectable})
		rw.emit(ir.Instr{Op: ir.FpmFetch, Dst: shad(in.Dst), A: shadOp(in.A), Flags: ir.FlagSecondary})

	case ir.Store:
		v := rw.inj(class, in.A)
		a := rw.inj(class, in.B)
		rw.emit(ir.Instr{
			Op: ir.FpmStore,
			A:  v, B: shadOp(in.A),
			C: a, D: shadOp(in.B),
			Flags: ir.FlagInjectable,
		})

	case ir.Jmp:
		pc := rw.emit(ir.Instr{Op: ir.Jmp, Target: in.Target})
		rw.branchFix = append(rw.branchFix, pc)
	case ir.Bnz, ir.Bz:
		pc := rw.emit(ir.Instr{Op: in.Op, A: primOp(in.A), Target: in.Target})
		rw.branchFix = append(rw.branchFix, pc)

	case ir.Call:
		args := make([]ir.Operand, 0, 2*len(in.Args))
		for _, a := range in.Args {
			args = append(args, primOp(a), shadOp(a))
		}
		rets := make([]ir.Reg, 0, 2*len(in.Rets))
		for _, r := range in.Rets {
			rets = append(rets, prim(r), shad(r))
		}
		rw.emit(ir.Instr{Op: ir.Call, Target: in.Target, Args: args, Rets: rets})

	case ir.Ret:
		args := make([]ir.Operand, 0, 2*len(in.Args))
		for _, a := range in.Args {
			args = append(args, primOp(a), shadOp(a))
		}
		rw.emit(ir.Instr{Op: ir.Ret, Args: args})

	case ir.Intrin:
		rw.rewriteIntrin(in)

	case ir.FimInj, ir.FpmFetch, ir.FpmStore:
		return fmt.Errorf("program already instrumented (%v)", in.Op)

	default:
		return fmt.Errorf("unhandled opcode %v", in.Op)
	}
	return nil
}

// rewriteIntrin handles the paper's function-call rules: pure library
// functions are executed twice (once per chain); impure functions execute
// once on the primary chain and their results' shadows are copies, since
// replicating side effects would corrupt the simulation (I/O, allocation)
// or is handled by the runtime itself (MPI piggyback).
func (rw *funcRewriter) rewriteIntrin(in *ir.Instr) {
	id := ir.IntrinID(in.Target)
	primArgs := make([]ir.Operand, len(in.Args))
	for i, a := range in.Args {
		primArgs[i] = primOp(a)
	}
	primRets := make([]ir.Reg, len(in.Rets))
	for i, r := range in.Rets {
		primRets[i] = prim(r)
	}
	rw.emit(ir.Instr{Op: ir.Intrin, Target: in.Target, Args: primArgs, Rets: primRets})
	if ir.IntrinPure(id) {
		shadArgs := make([]ir.Operand, len(in.Args))
		for i, a := range in.Args {
			shadArgs[i] = shadOp(a)
		}
		shadRets := make([]ir.Reg, len(in.Rets))
		for i, r := range in.Rets {
			shadRets[i] = shad(r)
		}
		rw.emit(ir.Instr{Op: ir.Intrin, Target: in.Target, Args: shadArgs, Rets: shadRets, Flags: ir.FlagSecondary})
		return
	}
	for _, r := range in.Rets {
		rw.emit(ir.Instr{Op: ir.Mov, Dst: shad(r), A: ir.R(prim(r)), Flags: ir.FlagSecondary})
	}
}

// CountStaticSites returns the number of static fim_inj sites in an
// instrumented program, a sanity metric for coverage reporting.
func CountStaticSites(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		for i := range f.Code {
			if f.Code[i].Op == ir.FimInj {
				n++
			}
		}
	}
	return n
}
