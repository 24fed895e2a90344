// Package vm interprets IR programs. It executes both plain programs and
// FPM-instrumented programs (produced by package transform): the FPM
// pseudo-ops fim_inj, fpm_fetch and fpm_store are implemented here against
// the contamination table, forming the paper's "runtime checker".
//
// Cycle accounting counts only application instructions — the secondary
// (pristine) chain and the FPM bookkeeping ops are free — so the virtual
// time base of an instrumented run matches the uninstrumented program and
// the fault propagation speed is expressed in application time.
package vm

import (
	"fmt"
	"io"
	"math"

	"repro/internal/fpm"
	"repro/internal/ir"
)

// MemWords is the logical size of every VM's address space: 1<<20 words
// (8 MiB), of which a Memory backs only what the program stores to. It
// fixes the out-of-bounds trap boundary, so it is part of what a result
// means and not a setting.
const MemWords = 1 << 20

// Config parameterizes one VM (one simulated MPI process).
type Config struct {
	// CycleLimit kills the run as a hang when exceeded; 0 means no limit.
	CycleLimit uint64
	// Injector applies LLFI++ bit flips at fim_inj sites; nil disables.
	Injector Injector
	// MPI connects the VM to its job; nil runs single-process.
	MPI MPIEndpoint
	// Tracer observes contamination changes and timesteps; nil disables.
	Tracer Tracer
	// Abort is the job-wide failure flag; nil disables peer-failure checks.
	Abort *AbortFlag
	// Stdout receives debug prints (default: discarded).
	Stdout io.Writer
	// OutputLimit bounds the observable output vector (default 1<<20).
	OutputLimit int
	// TrackTaint enables the naive taint tracker alongside the FPM (for
	// the overestimation ablation).
	TrackTaint bool
	// MemFaults are direct memory-level faults (the injection-model
	// ablation); each fires just before the first instruction that executes
	// at or after its AtCycle.
	MemFaults []MemFault
	// State, when non-nil, donates reusable buffers (address space, table,
	// registers, frames) to this VM instead of allocating fresh ones; see
	// State. Observable behaviour is identical either way.
	State *State
	// Quiesce, when non-nil, observes quiesce points (see snapshot.go); it
	// is how golden runs profile and capture snapshot-fork state.
	Quiesce QuiesceHook
	// SiteRuns, when non-nil, records the run's dyn→static site map into
	// *SiteRuns (see SiteRun). Fault-free runs only: a recording VM shows
	// no site to its injector, and stays on the clean-mode interpreter.
	SiteRuns *[]SiteRun
	// ForkRestore declares that the caller will RestoreSnap a snapshot
	// onto this VM before running it. New then skips resetting the pooled
	// State and skips global initialization, work the restore overwrites.
	ForkRestore bool
}

// VM executes one IR program in one address space.
type VM struct {
	prog  *ir.Program
	dprog *dprog
	cfg   Config
	mem   *Memory
	table *fpm.Table

	regs   []uint64
	frames []frame
	// ret carries call arguments and return values between frames; it is
	// fully overwritten before each use.
	ret    []uint64
	cycles uint64

	sites      uint64
	injCycles  []uint64
	outputs    []float64
	iterations int64
	ticks      int64

	taint            *taintState
	memFaultsDone    []bool
	memFaultsApplied int

	// MPI scratch, reused across the many messages of a run (see intrin.go
	// for the aliasing rules that make each reuse safe).
	txRecs  []fpm.MsgRecord
	rxWords []uint64
	rxRecs  []fpm.MsgRecord
	prist   []uint64
	// wire is cfg.MPI's buffer-recycling extension, when it has one.
	wire WireBufs

	// Clean-mode interpreter state (see cleanmode.go). clean is the
	// current mode; cleanOK caps it (program layout + config allow clean
	// execution at all); reframe asks the loop to refetch its cached code
	// slice after a mode switch that happened inside a call-out.
	clean   bool
	cleanOK bool
	reframe bool
	// nextSite is the next dynamic fim_inj site at which the injector may
	// act: sites below it take a pass-through fast path. NoSite when no
	// injector (or no remaining fault) is armed; 0 when the injector
	// cannot plan ahead and must see every site.
	nextSite uint64
	planner  SitePlanner

	// Quiesce-point bookkeeping (see snapshot.go). qarm is set by an
	// intrinsic that completed at a consistent cut; the loop fires the hook
	// once the intrinsic has fully retired.
	qseq uint64
	qarm bool
}

type frame struct {
	fn        *ir.Func
	df        *dfunc   // fn's decoded forms (shared, immutable)
	code      []dinstr // df's body for the current interpreter mode
	pc        int
	regBase   int
	frameBase int64
	retRegs   []ir.Reg
}

type trapPanic struct{ t *Trap }

// New prepares a VM for prog. The program must have been validated.
func New(prog *ir.Program, cfg Config) *VM {
	if cfg.OutputLimit == 0 {
		cfg.OutputLimit = 1 << 20
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	v := &VM{
		prog:  prog,
		dprog: decodedOf(prog),
		cfg:   cfg,
	}
	if cfg.State != nil {
		cfg.State.adopt(v, prog.GlobalWords, cfg.ForkRestore)
	} else {
		v.mem = NewMemory(MemWords, prog.GlobalWords)
		v.table = fpm.NewTable()
	}
	if !cfg.ForkRestore || cfg.State == nil {
		for _, g := range prog.Globals {
			if len(g.Init) > 0 {
				v.mem.InitGlobals(g.Base, g.Init)
			}
		}
	}
	if cfg.TrackTaint {
		v.taint = newTaintState(prog.Funcs[prog.Entry].NumRegs)
	}
	if wb, ok := cfg.MPI.(WireBufs); ok {
		v.wire = wb
	}
	if len(cfg.MemFaults) > 0 {
		v.memFaultsDone = make([]bool, len(cfg.MemFaults))
	}
	if v.observing() {
		v.dprog.buildObserved()
	}
	v.planner, _ = cfg.Injector.(SitePlanner)
	v.refreshNextSite()
	// Clean mode needs: a program whose dual-chain register pairing is
	// declared, no ablation that observes every instruction (see observe),
	// and an injector that can announce its next site — otherwise the very
	// first fim_inj would bounce the VM out of clean mode anyway.
	v.cleanOK = v.dprog.cleanOK && !v.observing() &&
		(cfg.Injector == nil || v.planner != nil)
	// A fresh run starts fault-free with an all-zero register file, so
	// shadows trivially mirror primaries. Fork restores overwrite the mode
	// from the snapshot (see RestoreSnap).
	v.clean = v.cleanOK
	return v
}

// refreshNextSite re-reads the injector's next planned site after any call
// that may have advanced it.
func (v *VM) refreshNextSite() {
	switch {
	case v.cfg.SiteRuns != nil:
		v.nextSite = 0 // recording: every site takes the recorder's path
	case v.planner != nil:
		v.nextSite = v.planner.NextSite()
	case v.cfg.Injector != nil:
		v.nextSite = 0 // unplannable: every site goes to the injector
	default:
		v.nextSite = NoSite
	}
}

// Mem exposes the address space (for tests and the harness).
func (v *VM) Mem() *Memory { return v.mem }

// Tracer exposes the configured tracer (used by snapshot capture hooks).
func (v *VM) Tracer() Tracer { return v.cfg.Tracer }

// Table exposes the contamination table.
func (v *VM) Table() *fpm.Table { return v.table }

// Outputs returns the observable output vector produced by the run.
func (v *VM) Outputs() []float64 { return v.outputs }

// Cycles returns the application cycles executed.
func (v *VM) Cycles() uint64 { return v.cycles }

// Sites returns the number of dynamic fim_inj sites executed; after a
// fault-free profiling run this is the injection-site space size.
func (v *VM) Sites() uint64 { return v.sites }

// InjectionCycles returns the application-cycle timestamps at which faults
// were actually applied during the run (paper Fig. 5's time axis).
func (v *VM) InjectionCycles() []uint64 { return v.injCycles }

// Iterations returns the solver iteration count reported by the program
// (0 when never reported).
func (v *VM) Iterations() int64 { return v.iterations }

// Ticks returns the number of timestep boundaries the program marked.
func (v *VM) Ticks() int64 { return v.ticks }

func (v *VM) trap(kind TrapKind, detail string) {
	fn, pc := "?", -1
	if n := len(v.frames); n > 0 {
		fn = v.frames[n-1].fn.Name
		pc = v.frames[n-1].pc
	}
	panic(trapPanic{&Trap{Kind: kind, Func: fn, PC: pc, Cycles: v.cycles, Detail: detail}})
}

// codeFor selects df's code array for this VM's interpreter mode (see
// decode.go): clean while the rank is provably fault-free, observed when an
// ablation watches every instruction, full otherwise — or the 1:1 code when
// the VM may not run clean at all (cleanOK), which is when an injector that
// cannot plan its sites must see every site.
func (v *VM) codeFor(df *dfunc) []dinstr {
	switch {
	case v.clean:
		return df.clean
	case v.observing():
		return df.observed
	case v.cleanOK:
		return df.full
	}
	return df.code
}

// val evaluates an undecoded operand; used off the hot path (intrinsic
// arguments, call/ret argument lists, the taint ablation).
func (v *VM) val(base int, o ir.Operand) uint64 {
	if o.Kind == ir.KindReg {
		return v.regs[base+int(o.Reg)]
	}
	return o.Imm
}

// opA..opD evaluate pre-decoded operand payloads: one precomputed bit says
// whether the payload is a register index or the immediate itself. They
// take the register file as an argument so the interpreter loop's cached
// local slice is used instead of re-loading v.regs per operand.
func opA(regs []uint64, base int, in *dinstr) uint64 {
	if in.kinds&kA != 0 {
		return regs[base+int(in.a)]
	}
	return in.a
}

func opB(regs []uint64, base int, in *dinstr) uint64 {
	if in.kinds&kB != 0 {
		return regs[base+int(in.b)]
	}
	return in.b
}

func opC(regs []uint64, base int, in *dinstr) uint64 {
	if in.kinds&kC != 0 {
		return regs[base+int(in.c)]
	}
	return in.c
}

func opD(regs []uint64, base int, in *dinstr) uint64 {
	if in.kinds&kD != 0 {
		return regs[base+int(in.d)]
	}
	return in.d
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func fbits(f float64) uint64  { return math.Float64bits(f) }

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fptosi emulates hardware float->int conversion: NaN and out-of-range
// values produce INT64_MIN (x86 cvttsd2si semantics) instead of trapping,
// so corrupted floats become wild indices that crash at the memory access,
// as on real machines.
func fptosi(f float64) int64 {
	if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
		return math.MinInt64
	}
	return int64(f)
}

func (v *VM) housekeep() {
	if v.cfg.CycleLimit > 0 && v.cycles > v.cfg.CycleLimit {
		v.trap(TrapCycleLimit, "")
	}
	if v.cfg.Abort != nil && v.cfg.Abort.Raised() {
		v.trap(TrapPeerFailure, "job aborted")
	}
}

// secondCycle charges the second application cycle of a two-cycle
// superinstruction, between its halves, with the loop's housekeeping check
// at the second instruction's pc — so a cycle-limit or abort trap lands on
// the same cycle and pc as in code.
func (v *VM) secondCycle(fr *frame, in *dinstr) {
	v.cycles++
	if v.cycles&1023 == 0 {
		fr.pc = int(in.d)
		v.housekeep()
	}
}

func (v *VM) noteCML(before int) {
	if v.cfg.Tracer != nil && v.table.Len() != before {
		v.cfg.Tracer.OnCMLChange(v.cycles, v.table.Len())
	}
}

// pushFrame prepares a frame for callee (function index fi) with the
// argument values already evaluated into args.
func (v *VM) pushFrame(fi int, args []uint64, retRegs []ir.Reg) {
	df := &v.dprog.funcs[fi]
	callee := df.fn
	regBase := 0
	if n := len(v.frames); n > 0 {
		top := &v.frames[n-1]
		regBase = top.regBase + top.fn.NumRegs
	}
	need := regBase + callee.NumRegs
	// Grow the register file in one step (amortized doubling), then clear
	// the callee's window with a single memclr. The window always covers
	// any capacity newly exposed by reslicing, so a pooled register file
	// cannot leak values between runs.
	if need > len(v.regs) {
		if need <= cap(v.regs) {
			v.regs = v.regs[:need]
		} else {
			grown := make([]uint64, need, max(need, 2*cap(v.regs)))
			copy(grown, v.regs)
			v.regs = grown
		}
	}
	rf := v.regs[regBase:need]
	clear(rf)
	copy(rf, args)
	fb := int64(0)
	if callee.Frame > 0 {
		var ok bool
		fb, ok = v.mem.PushFrame(int64(callee.Frame))
		if !ok {
			v.trap(TrapStackOverflow, callee.Name)
		}
	}
	v.frames = append(v.frames, frame{
		fn: callee, df: df, code: v.codeFor(df),
		regBase: regBase, frameBase: fb, retRegs: retRegs,
	})
	if len(v.frames) > 4096 {
		v.trap(TrapStackOverflow, "call depth")
	}
}

// Run executes the entry function to completion. It returns nil on success
// or the *Trap / wrapped MPI failure that killed the run.
func (v *VM) Run() error {
	entry := v.prog.Funcs[v.prog.Entry]
	if entry.NumParams != 0 {
		return fmt.Errorf("vm: entry %q takes parameters", entry.Name)
	}
	return v.execute()
}

// execute drives the interpreter with trap containment; it pushes the entry
// frame unless a snapshot restore already installed a frame stack.
func (v *VM) execute() (err error) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(trapPanic)
			if !ok {
				panic(r)
			}
			err = tp.t
			if v.cfg.Abort != nil {
				v.cfg.Abort.Raise()
			}
		}
	}()
	if len(v.frames) == 0 {
		v.pushFrame(v.prog.Entry, nil, nil)
	}
	v.loop()
	return nil
}

// loop is the interpreter. It runs until the entry function returns, or a
// Quiesce hook ends the run at a golden-equal cut (see snapshot.go). It
// executes the pre-decoded form (see decode.go): cycle accounting is a
// single precomputed byte and operand fetches dispatch on a precomputed
// kind bit instead of re-inspecting ir.Operand tags.
//
// The hot state — program counter, register window base, code slice,
// register file and memory — lives in locals for the duration of a frame;
// the inner loop touches the VM and frame structs only on the cold paths.
// fr.pc is therefore stale between sync points and MUST be re-synced
// (fr.pc = pc) before anything that can observe it: every trap, housekeep
// (cycle limit / abort can trap), and intrinsics (whose quiesce hook
// captures the frame stack). Frame changes (Call, Ret) and anything that
// may swap the register file restart the outer loop, which refetches all
// cached state. The ablations have no code here: they run on the observed
// code array, whose opObserve takes the fused-site cold branch.
func (v *VM) loop() {
frames:
	for {
		fr := &v.frames[len(v.frames)-1]
		code := fr.code
		base := fr.regBase
		regs := v.regs
		mem := v.mem
		pc := fr.pc
		for {
			if uint(pc) >= uint(len(code)) {
				fr.pc = pc
				v.trap(TrapInvalid, "pc out of range")
			}
			in := &code[pc]

			// Fused fim_inj groups (fused code only): this instruction
			// absorbed the nsites injection sites emitted just before it.
			// Unless a planned fault falls inside that range, retire all of
			// its sites in one step. If one does, clean mode leaves for the
			// full array and replays from the group's first pc; full mode
			// runs the group's fim_injs from code and then this instruction
			// in its unfused form. Checked before cycle accounting so neither
			// path counts this instruction's cycle twice. Observed code
			// (ablation runs only) shares this cold branch: opObserve lets
			// the ablations see the instruction, then hands over to its code
			// form at the same pc.
			if in.nsites != 0 {
				if in.op == opObserve {
					fr.pc = pc
					v.observe(fr, pc)
					in = &fr.df.code[pc]
				} else if ns := v.sites + uint64(in.nsites); ns <= v.nextSite {
					v.sites = ns
				} else if v.cfg.SiteRuns != nil {
					v.recordSites(fr.df, pc-int(in.nsites), pc)
				} else if v.clean {
					fr.pc = pc - int(in.nsites)
					v.toFullMode()
					v.reframe = false
					continue frames
				} else {
					fr.pc = pc
					v.replayFused(fr, pc, int(in.nsites))
					in = &fr.df.code[pc]
				}
			}

			// Application cycle accounting, precomputed at decode time:
			// secondary-chain instructions and FPM bookkeeping are free;
			// fpm_store counts as the store it replaced.
			if in.cost != 0 {
				v.cycles++
				if v.cycles&1023 == 0 {
					fr.pc = pc
					v.housekeep()
				}
			}

			switch in.op {
			case ir.Nop:

			case opSkip:
				// Fused code only, reached when a bail or a replayed group
				// resumes at a skipped pc: hop over the whole skipped run.
				pc = int(in.target)
				continue

			case ir.ConstI, ir.ConstF:
				regs[base+int(in.dst)] = in.a
			case ir.Mov:
				regs[base+int(in.dst)] = opA(regs, base, in)

			case ir.Add:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) + int64(opB(regs, base, in)))
			case ir.Sub:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) - int64(opB(regs, base, in)))
			case ir.Mul:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) * int64(opB(regs, base, in)))
			case ir.SDiv:
				a, b := int64(opA(regs, base, in)), int64(opB(regs, base, in))
				if b == 0 {
					fr.pc = pc
					v.trap(TrapDivZero, "sdiv")
				}
				if a == math.MinInt64 && b == -1 {
					fr.pc = pc
					v.trap(TrapDivOverflow, "sdiv")
				}
				regs[base+int(in.dst)] = uint64(a / b)
			case ir.SRem:
				a, b := int64(opA(regs, base, in)), int64(opB(regs, base, in))
				if b == 0 {
					fr.pc = pc
					v.trap(TrapDivZero, "srem")
				}
				if a == math.MinInt64 && b == -1 {
					fr.pc = pc
					v.trap(TrapDivOverflow, "srem")
				}
				regs[base+int(in.dst)] = uint64(a % b)
			case ir.Shl:
				regs[base+int(in.dst)] = opA(regs, base, in) << (opB(regs, base, in) & 63)
			case ir.LShr:
				regs[base+int(in.dst)] = opA(regs, base, in) >> (opB(regs, base, in) & 63)
			case ir.AShr:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) >> (opB(regs, base, in) & 63))
			case ir.And:
				regs[base+int(in.dst)] = opA(regs, base, in) & opB(regs, base, in)
			case ir.Or:
				regs[base+int(in.dst)] = opA(regs, base, in) | opB(regs, base, in)
			case ir.Xor:
				regs[base+int(in.dst)] = opA(regs, base, in) ^ opB(regs, base, in)

			case ir.FAdd:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) + f64(opB(regs, base, in)))
			case ir.FSub:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) - f64(opB(regs, base, in)))
			case ir.FMul:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) * f64(opB(regs, base, in)))
			case ir.FDiv:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) / f64(opB(regs, base, in)))

			case ir.SIToFP:
				regs[base+int(in.dst)] = fbits(float64(int64(opA(regs, base, in))))
			case ir.FPToSI:
				regs[base+int(in.dst)] = uint64(fptosi(f64(opA(regs, base, in))))

			case ir.ICmpEQ:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) == int64(opB(regs, base, in)))
			case ir.ICmpNE:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) != int64(opB(regs, base, in)))
			case ir.ICmpSLT:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) < int64(opB(regs, base, in)))
			case ir.ICmpSLE:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) <= int64(opB(regs, base, in)))
			case ir.ICmpSGT:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) > int64(opB(regs, base, in)))
			case ir.ICmpSGE:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) >= int64(opB(regs, base, in)))

			case ir.FCmpEQ:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) == f64(opB(regs, base, in)))
			case ir.FCmpNE:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) != f64(opB(regs, base, in)))
			case ir.FCmpLT:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) < f64(opB(regs, base, in)))
			case ir.FCmpLE:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) <= f64(opB(regs, base, in)))
			case ir.FCmpGT:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) > f64(opB(regs, base, in)))
			case ir.FCmpGE:
				regs[base+int(in.dst)] = b2w(f64(opA(regs, base, in)) >= f64(opB(regs, base, in)))

			case ir.Select:
				if opA(regs, base, in) != 0 {
					regs[base+int(in.dst)] = opB(regs, base, in)
				} else {
					regs[base+int(in.dst)] = opC(regs, base, in)
				}

			case ir.Load:
				addr := int64(opA(regs, base, in))
				w, ok := mem.readHot(addr)
				if !ok {
					if w, ok = mem.readSlow(addr); !ok {
						fr.pc = pc
						v.trapMem(addr)
					}
				}
				regs[base+int(in.dst)] = w
			case ir.Store:
				addr := int64(opB(regs, base, in))
				if w := opA(regs, base, in); !mem.writeHot(addr, w) && !mem.writeSlow(addr, w) {
					fr.pc = pc
					v.trapMem(addr)
				}
			case ir.FrameAddr:
				regs[base+int(in.dst)] = uint64(fr.frameBase + int64(in.a))

			case ir.Jmp:
				pc = int(in.target)
				continue
			case ir.Bnz:
				if opA(regs, base, in) != 0 {
					pc = int(in.target)
					continue
				}
			case ir.Bz:
				if opA(regs, base, in) == 0 {
					pc = int(in.target)
					continue
				}

			case ir.Call:
				args := in.src.Args
				v.ret = v.ret[:0]
				for _, a := range args {
					v.ret = append(v.ret, v.val(base, a))
				}
				fr.pc = pc + 1
				v.pushFrame(int(in.target), v.ret, in.src.Rets)
				continue frames

			case ir.Ret:
				args := in.src.Args
				v.ret = v.ret[:0]
				for _, a := range args {
					v.ret = append(v.ret, v.val(base, a))
				}
				popped := v.frames[len(v.frames)-1]
				if popped.fn.Frame > 0 {
					v.mem.PopFrame(int64(popped.fn.Frame))
				}
				v.frames = v.frames[:len(v.frames)-1]
				if len(v.frames) == 0 {
					return // entry returned: program complete
				}
				caller := &v.frames[len(v.frames)-1]
				for i, r := range popped.retRegs {
					if i < len(v.ret) {
						v.regs[caller.regBase+int(r)] = v.ret[i]
					}
				}
				continue frames

			case ir.Intrin:
				fr.pc = pc
				v.intrin(fr, in.src)
				if v.clean && v.table.Len() != 0 {
					// Incoming MPI data installed contamination records
					// while the secondary chain was parked: rebuild the
					// shadows and fall back to the full interpreter before
					// the next instruction runs.
					v.toFullMode()
				}
				if v.qarm {
					// The intrinsic completed at a consistent cut: fire the
					// quiesce hook before retiring it, so a snapshot taken
					// here resumes at the next instruction. A hook that
					// found the job back in the golden state ends the run
					// here, as if the entry function had returned.
					v.qarm = false
					seq := v.qseq
					v.qseq++
					if v.cfg.Quiesce.Quiesce(v, seq) {
						return
					}
				}
				if v.reframe {
					// A mode switch inside the intrinsic (or just above)
					// swapped the frames' code arrays; the intrinsic has
					// retired, so resume at the next pc under the new mode.
					v.reframe = false
					fr.pc = pc + 1
					continue frames
				}
				// Intrinsics write results through v.regs; hooks above may
				// capture or adjust state. Neither swaps the register file,
				// but refetch defensively — this path is not hot.
				regs = v.regs

			case ir.FimInj:
				site := v.sites
				if site < v.nextSite {
					// No planned fault can fire here: pass the operand
					// through without consulting the injector.
					v.sites++
					regs[base+int(in.dst)] = opA(regs, base, in)
					break
				}
				if v.cfg.SiteRuns != nil {
					v.recordSites(fr.df, pc, pc+1)
					regs[base+int(in.dst)] = opA(regs, base, in)
					break
				}
				if v.clean {
					// The injector may corrupt state at this very site:
					// leave clean mode first (reconstructing the shadow
					// registers from their still-pristine primaries), then
					// re-execute this fim_inj under the full interpreter.
					// v.sites is untouched, so no site is double-counted.
					fr.pc = pc
					v.toFullMode()
					v.reframe = false // this path refetches via continue
					continue frames
				}
				v.fimInj(fr, in)

			case ir.FpmFetch:
				addr := int64(opA(regs, base, in))
				w, ok := mem.readHot(addr)
				if !ok {
					if w, ok = mem.readSlow(addr); !ok {
						fr.pc = pc
						v.trapMem(addr)
					}
				}
				regs[base+int(in.dst)] = v.table.PristineOr(addr, w)

			// Superinstructions (see decode.go): the first half reads a, b
			// and writes dst; the second reads c (and d) and writes the
			// register, or jumps to the pc, in target.
			case opAdd2:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) + int64(opB(regs, base, in)))
				regs[base+int(in.target)] = uint64(int64(opC(regs, base, in)) + int64(opD(regs, base, in)))
			case opFAdd2:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) + f64(opB(regs, base, in)))
				regs[base+int(in.target)] = fbits(f64(opC(regs, base, in)) + f64(opD(regs, base, in)))
			case opFMul2:
				regs[base+int(in.dst)] = fbits(f64(opA(regs, base, in)) * f64(opB(regs, base, in)))
				regs[base+int(in.target)] = fbits(f64(opC(regs, base, in)) * f64(opD(regs, base, in)))
			case opICmpSLT2:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) < int64(opB(regs, base, in)))
				regs[base+int(in.target)] = b2w(int64(opC(regs, base, in)) < int64(opD(regs, base, in)))
			case opLoadFetch:
				addr := int64(opA(regs, base, in))
				w, ok := mem.readHot(addr)
				if !ok {
					if w, ok = mem.readSlow(addr); !ok {
						fr.pc = pc
						v.trapMem(addr)
					}
				}
				regs[base+int(in.dst)] = w
				addr = int64(opC(regs, base, in))
				if w, ok = mem.readHot(addr); !ok {
					if w, ok = mem.readSlow(addr); !ok {
						fr.pc = int(in.d)
						v.trapMem(addr)
					}
				}
				regs[base+int(in.target)] = v.table.PristineOr(addr, w)
			case opAddLoad:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) + int64(opB(regs, base, in)))
				v.secondCycle(fr, in)
				addr := int64(opC(regs, base, in))
				w, ok := mem.readHot(addr)
				if !ok {
					if w, ok = mem.readSlow(addr); !ok {
						fr.pc = int(in.d)
						v.trapMem(addr)
					}
				}
				regs[base+int(in.target)] = w
			case opICmpSLTBz:
				regs[base+int(in.dst)] = b2w(int64(opA(regs, base, in)) < int64(opB(regs, base, in)))
				v.secondCycle(fr, in)
				if opC(regs, base, in) == 0 {
					pc = int(in.target)
					continue
				}
			case opAddJmp:
				regs[base+int(in.dst)] = uint64(int64(opA(regs, base, in)) + int64(opB(regs, base, in)))
				v.secondCycle(fr, in)
				pc = int(in.target)
				continue

			case ir.FpmStore:
				fr.pc = pc
				v.fpmStore(regs, base, in)
				if v.reframe {
					// The store emptied the table and the VM re-entered
					// clean mode: resume at the next pc under the new code.
					v.reframe = false
					fr.pc = pc + 1
					continue frames
				}

			default:
				fr.pc = pc
				v.trap(TrapInvalid, in.op.String())
			}
			// Threaded fall-through: pc+1 in code, the next retained pc in
			// the fused arrays (stepping over skipped pcs).
			pc = int(in.next)
		}
	}
}

// fimInj executes the fim_inj in of fr with the full site semantics:
// it numbers the dynamic site and, from the injector's next planned site
// on, offers it to the injector, timestamps a flip and re-reads the plan.
// The loop's pass-through fast path retires earlier sites without the call.
func (v *VM) fimInj(fr *frame, in *dinstr) {
	base := fr.regBase
	val := opA(v.regs, base, in)
	site := v.sites
	v.sites++
	if site >= v.nextSite && v.cfg.Injector != nil {
		var flipped bool
		val, flipped = v.cfg.Injector.OnSite(site, val)
		if flipped {
			v.injCycles = append(v.injCycles, v.cycles)
		}
		v.refreshNextSite()
	}
	v.regs[base+int(in.dst)] = val
}

// replayFused runs, in full mode, the n fim_injs that the consumer at pc
// absorbed, from code and one site at a time, because a planned fault
// falls among them. The caller then executes the consumer's code form,
// which reads the temporaries they wrote.
func (v *VM) replayFused(fr *frame, pc, n int) {
	fusedReplays.Add(1)
	for i := pc - n; i < pc; i++ {
		v.fimInj(fr, &fr.df.code[i])
	}
}

// recordSites retires the sites of df's fim_injs at pcs [from, to), one
// dynamic site each in order, into the SiteRuns record, reading their
// static ordinals from code: a site extends the last run when its static
// ordinal is the run's next one, and opens a new run otherwise. Kept out
// of line so the recording costs the interpreter loop one branch on its
// cold path and nothing else.
//
//go:noinline
func (v *VM) recordSites(df *dfunc, from, to int) {
	runs := *v.cfg.SiteRuns
	for i := from; i < to; i++ {
		static := df.code[i].target
		if n := len(runs); n > 0 && runs[n-1].Static+int32(runs[n-1].N) == static {
			runs[n-1].N++
		} else {
			runs = append(runs, SiteRun{Site: v.sites, Static: static, N: 1})
		}
		v.sites++
	}
	*v.cfg.SiteRuns = runs
}

func (v *VM) trapMem(addr int64) {
	if addr == 0 {
		v.trap(TrapNull, "")
	}
	v.trap(TrapOOB, fmt.Sprintf("address %d", addr))
}

// fpmStore implements the paper's fpm_store runtime call, including the
// duplicate effect of corrupted store addresses (§3.2 "Store addresses").
func (v *VM) fpmStore(regs []uint64, base int, in *dinstr) {
	vP := opA(regs, base, in) // primary value
	vS := opB(regs, base, in) // pristine value
	aP := int64(opC(regs, base, in))
	aS := int64(opD(regs, base, in))
	before := v.table.Len()
	if aP == aS {
		if !v.mem.writeHot(aP, vP) && !v.mem.writeSlow(aP, vP) {
			v.trapMem(aP)
		}
		v.table.Observe(aP, vP, vS)
		v.noteCML(before)
		if before > 0 && v.table.Len() == 0 {
			// The store cleansed the last contaminated location: the rank
			// may be fault-free again.
			v.tryCleanMode()
		}
		return
	}
	// The address register is corrupted: the location actually written
	// (aP) now holds a value it should not, and the location that should
	// have been written (aS) was not.
	oldPristine, ok := v.mem.Read(aP)
	if !ok {
		v.trapMem(aP)
	}
	oldPristine = v.table.PristineOr(aP, oldPristine)
	if !v.mem.Write(aP, vP) {
		v.trapMem(aP)
	}
	v.table.Observe(aP, vP, oldPristine)
	cur, ok := v.mem.Read(aS)
	if !ok {
		// The pristine address is the one the fault-free program would
		// use; if it is invalid the original program was broken. Trap.
		v.trapMem(aS)
	}
	v.table.Observe(aS, cur, vS)
	v.noteCML(before)
}
