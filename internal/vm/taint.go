package vm

import "repro/internal/ir"

// The two ablations, naive taint tracking and direct memory faults, run
// only on the observed code array (decode.go): every pc of it holds
// opObserve, which makes the interpreter call observe before the real
// instruction at that pc runs. The full and clean code arrays carry no
// ablation code at all, and a VM without ablations never builds the
// observed one.
//
// Naive taint tracking implements the baseline the paper argues against
// (§3.2): "the general assumption that the output of an instruction becomes
// corrupted if at least one of the inputs is corrupted". Unlike the exact
// dual-chain FPM, taint can never be cleansed by value agreement — a store
// whose tainted value happens to equal the pristine value still marks the
// location — so it overestimates the corrupted memory locations. Enabled
// with Config.TrackTaint, it runs alongside the FPM so one run yields both
// counts for the ablation benchmark. The taint model is within-process
// only (no message piggyback), so the ablation compares single-process
// runs.

type taintState struct {
	regs []bool
	mem  map[int64]bool
	peak int
	// injSeen is len(VM.injCycles) at the previous observe; injDst is the
	// absolute register the last fim_inj wrote. A grown injCycles means that
	// fim_inj flipped its value.
	injSeen int
	injDst  int
}

func newTaintState(entryRegs int) *taintState {
	return &taintState{regs: make([]bool, entryRegs), mem: make(map[int64]bool)}
}

func (t *taintState) markMem(addr int64, tainted bool) {
	if tainted {
		t.mem[addr] = true
		if len(t.mem) > t.peak {
			t.peak = len(t.mem)
		}
		return
	}
	delete(t.mem, addr)
}

// TaintCML returns the current naive-taint corrupted-location count.
func (v *VM) TaintCML() int {
	if v.taint == nil {
		return 0
	}
	return len(v.taint.mem)
}

// TaintPeak returns the peak naive-taint corrupted-location count.
func (v *VM) TaintPeak() int {
	if v.taint == nil {
		return 0
	}
	return v.taint.peak
}

// observing reports whether this VM runs an ablation, and so executes the
// observed code array.
func (v *VM) observing() bool { return v.taint != nil || v.memFaultsDone != nil }

// observe runs the ablations ahead of the instruction at pc of fr, which
// has not executed yet: due memory faults fire first, then the taint rule
// sees the instruction's pre-execution operands.
func (v *VM) observe(fr *frame, pc int) {
	if v.memFaultsDone != nil {
		v.applyMemFaults()
	}
	if v.taint != nil {
		v.taintStep(fr, &fr.fn.Code[pc])
	}
}

func (v *VM) taintGrow(n int) {
	for len(v.taint.regs) < n {
		v.taint.regs = append(v.taint.regs, false)
	}
}

func (v *VM) taintOf(base int, o ir.Operand) bool {
	return o.IsReg() && v.taint.regs[base+int(o.Reg)]
}

// taintStep applies the naive propagation rule for one instruction, using
// pre-execution register values (the address of a load/store is evaluated
// before the instruction mutates anything).
func (v *VM) taintStep(fr *frame, in *ir.Instr) {
	t := v.taint
	base := fr.regBase
	if n := len(v.injCycles); n != t.injSeen {
		// The fim_inj that just executed flipped the value it wrote.
		t.injSeen = n
		t.regs[t.injDst] = true
	}
	setDst := func(b bool) {
		if in.Dst != ir.NoReg {
			t.regs[base+int(in.Dst)] = b
		}
	}
	switch in.Op {
	case ir.ConstI, ir.ConstF, ir.FrameAddr:
		setDst(false)
	case ir.Mov:
		setDst(v.taintOf(base, in.A))
	case ir.FimInj:
		setDst(v.taintOf(base, in.A))
		t.injDst = base + int(in.Dst)
	case ir.Add, ir.Sub, ir.Mul, ir.SDiv, ir.SRem, ir.Shl, ir.LShr, ir.AShr,
		ir.And, ir.Or, ir.Xor, ir.FAdd, ir.FSub, ir.FMul, ir.FDiv,
		ir.SIToFP, ir.FPToSI,
		ir.ICmpEQ, ir.ICmpNE, ir.ICmpSLT, ir.ICmpSLE, ir.ICmpSGT, ir.ICmpSGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE,
		ir.Select:
		setDst(v.taintOf(base, in.A) || v.taintOf(base, in.B) || v.taintOf(base, in.C))
	case ir.Load:
		addr := int64(v.val(base, in.A))
		setDst(t.mem[addr] || v.taintOf(base, in.A))
	case ir.FpmFetch:
		setDst(false)
	case ir.Store:
		addr := int64(v.val(base, in.B))
		t.markMem(addr, v.taintOf(base, in.A) || v.taintOf(base, in.B))
	case ir.FpmStore:
		addr := int64(v.val(base, in.C))
		tainted := v.taintOf(base, in.A) || v.taintOf(base, in.C)
		t.markMem(addr, tainted)
		if v.taintOf(base, in.C) {
			// Corrupted store address: the location that should have
			// been written is corrupted too (the duplicate effect).
			t.markMem(int64(v.val(base, in.D)), true)
		}
	case ir.Call:
		// The callee's window starts clean except for its arguments.
		cb := base + fr.fn.NumRegs
		n := v.dprog.funcs[in.Target].fn.NumRegs
		v.taintGrow(cb + n)
		tf := t.regs[cb : cb+n]
		clear(tf)
		for i, a := range in.Args {
			if i < n {
				tf[i] = v.taintOf(base, a)
			}
		}
	case ir.Ret:
		// The caller's result registers take the returned operands' taint.
		if n := len(v.frames); n > 1 {
			cb := v.frames[n-2].regBase
			for i, r := range fr.retRegs {
				if i < len(in.Args) {
					t.regs[cb+int(r)] = v.taintOf(base, in.Args[i])
				}
			}
		}
	case ir.Intrin:
		id := ir.IntrinID(in.Target)
		switch id {
		case ir.IntrinMPIAllreduceF, ir.IntrinMPIAllreduceI:
			// Within-process rule: the reduction result is tainted when
			// any local contribution is. Remote taint is unknowable
			// without piggyback, so cleansing is only sound on
			// single-process jobs.
			send := int64(v.val(base, in.Args[0]))
			recv := int64(v.val(base, in.Args[1]))
			count := int64(v.val(base, in.Args[2]))
			tainted := v.taintOf(base, in.Args[0]) || v.taintOf(base, in.Args[2])
			for a := send; a < send+count; a++ {
				tainted = tainted || t.mem[a]
			}
			soloJob := v.cfg.MPI == nil || v.cfg.MPI.Size() == 1
			for a := recv; a < recv+count; a++ {
				if tainted {
					t.markMem(a, true)
				} else if soloJob {
					t.markMem(a, false)
				}
			}
		default:
			tainted := false
			if ir.IntrinPure(id) {
				for _, a := range in.Args {
					tainted = tainted || v.taintOf(base, a)
				}
			}
			for _, r := range in.Rets {
				t.regs[base+int(r)] = tainted
			}
		}
	}
}

// MemFault is a direct memory-level fault (the Li et al.-style injection
// model the paper contrasts with register-level injection, §6): at the
// given application cycle, flip a bit of the word at the given fractional
// position of the allocated data segment.
type MemFault struct {
	// AtCycle is the application cycle of the fault: it applies just
	// before the first instruction that executes once the run has counted
	// AtCycle cycles. A fault due after the run's last instruction never
	// applies.
	AtCycle uint64
	// AddrUnit in [0,1) selects the target word within the allocated
	// globals+heap extent.
	AddrUnit float64
	// Bit is the bit to flip.
	Bit uint
}

// applyMemFaults fires due memory faults; observe calls it ahead of every
// instruction, so a fault lands exactly at its cycle.
func (v *VM) applyMemFaults() {
	for i := range v.cfg.MemFaults {
		mf := &v.cfg.MemFaults[i]
		if v.memFaultsDone[i] || v.cycles < mf.AtCycle {
			continue
		}
		v.memFaultsDone[i] = true
		alloc := v.mem.AllocatedWords()
		if alloc <= 0 {
			continue
		}
		frac := mf.AddrUnit
		if frac < 0 {
			frac = 0
		}
		if frac >= 1 {
			frac = 0.999999
		}
		addr := 1 + int64(frac*float64(alloc))
		old, ok := v.mem.Read(addr)
		if !ok {
			continue
		}
		pristine := v.table.PristineOr(addr, old)
		now := old ^ (1 << (mf.Bit & 63))
		v.mem.Write(addr, now)
		before := v.table.Len()
		v.table.Observe(addr, now, pristine)
		v.noteCML(before)
		if v.taint != nil {
			v.taint.markMem(addr, true)
		}
		v.memFaultsApplied++
	}
}

// MemFaultsApplied returns how many configured memory faults fired.
func (v *VM) MemFaultsApplied() int { return v.memFaultsApplied }
