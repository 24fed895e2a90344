package vm

import (
	"slices"
	"sync"

	"repro/internal/ir"
)

// Pre-decoded interpreter form. ir.Instr is built for construction and
// transformation: operands carry a Kind tag inspected on every read, the
// cycle-accounting class is derived from flags per step, and the struct
// (with its Args/Rets slices) is far larger than a cache line. The decode
// step lowers each function once into a flat []dinstr whose operand kinds
// are resolved into a bitmask, whose immediates are pre-split from register
// indices, and whose cycle-accounting classification (FlagSecondary /
// FimInj / FpmFetch are free; everything else costs one application cycle)
// is precomputed into a single byte — so the hot loop dispatches on the
// opcode and never re-inspects flags or operand tags.
//
// Each function has up to four code arrays, all with the original pc
// numbering: jump targets, trap pcs and captured frame stacks are valid in
// every one of them, which is what lets the interpreter switch arrays
// mid-function.
//
//   - code is the 1:1 lowering. A VM runs it when it has an injector that
//     cannot plan sites (every site must be seen), and for every function
//     that lacks a PairedRegs declaration, where it is the differential
//     reference the other arrays are tested against. The fused arrays fall
//     back to it for the one instruction a planned fault lands in.
//   - full is the dual-chain interpreter's array: code with every fim_inj
//     group fused into its consumer (fuseInj) and each hot primary fused
//     with its FlagSecondary twin (superinstructions below). A rank runs it
//     from the moment a fault may corrupt state until it is provably
//     fault-free again.
//   - clean is the clean-mode array (buildClean): the secondary chain
//     skipped, fim_inj groups fused as in full, and hot pairs of
//     application instructions fused along the threaded fall-through. A
//     rank runs it while it is provably fault-free: the golden run (also
//     when it records the site map, reading each fused group's static
//     ordinals from code), the prefix before a fault fires, and the tail
//     after the contamination dies.
//   - observed is built only when the taint or memory-fault ablation runs
//     (buildObserved) and hands every pc to code after the ablation's hook.
//
// full and clean alias code for a function with no instrumentation, or
// with instrumentation but no PairedRegs, so plain programs run no fused
// code at all.

// Operand-kind bits in dinstr.kinds: bit set means the payload holds a
// register index, clear means it is the immediate value itself.
const (
	kA uint8 = 1 << iota
	kB
	kC
	kD
)

// dinstr is one lowered instruction. Field order keeps the struct at 56
// bytes (vs ~128 for ir.Instr), so more of the working code fits in cache.
type dinstr struct {
	a, b, c, d uint64    // operand payloads: register index or immediate
	src        *ir.Instr // original instruction: Args/Rets for call-like ops
	dst        int32
	target     int32
	// next is the fall-through successor pc. In code it is always pc+1; in
	// the fused arrays it is the next *retained* pc, so the interpreter
	// steps straight over skipped instructions without dispatching the
	// opSkip chain in between (threaded fall-through).
	next  int32
	op    ir.Op
	cost  uint8 // 1 when the instruction counts an application cycle
	kinds uint8
	// nsites is non-zero only in fused code: this instruction absorbed the
	// nsites fim_inj instructions immediately preceding it (see fuseInj).
	// The interpreter advances the dynamic site counter by nsites in one
	// step, or — if a planned fault falls inside the absorbed range — runs
	// the group's fim_injs from code. In observed code every opObserve
	// carries 1 to take the same cold branch.
	nsites uint8
}

// vm-private pseudo-opcodes, numbered right after ir's own so the
// interpreter's switch stays dense.
const (
	// opSkip replaces an instruction the fused arrays do not execute: in
	// clean code a secondary-chain instruction, in both fused arrays a
	// fim_inj its consumer absorbed. Its target points at the next retained
	// pc, so one dispatch hops over a whole skipped run (and threading
	// means straight-line flow never dispatches it at all).
	opSkip = ir.FpmStore + 1 + iota
	// opObserve is used only in observed code arrays. It never reaches the
	// interpreter's switch: its non-zero nsites sends it down the
	// fused-site cold branch, which runs the ablations' observe hook and
	// then continues with the code instruction at the same pc.
	opObserve

	// Superinstructions execute two decoded instructions in one dispatch.
	// The twin ones fuse a primary with its FlagSecondary twin at pc+1 in
	// the full array and cost the primary's one cycle. opAddLoad,
	// opICmpSLTBz and opAddJmp fuse two application instructions adjacent
	// along the clean array's threaded fall-through and cost two: the
	// interpreter charges the second cycle, with its housekeeping check,
	// between the halves, at the second instruction's pc.
	opAdd2
	opFAdd2
	opFMul2
	opICmpSLT2
	opLoadFetch
	opAddLoad
	opICmpSLTBz
	opAddJmp
)

// superinstructions lists the pairs the decoder fuses, chosen from the
// dynamic pair histogram of the instrumented applications (EXPERIMENTS.md,
// "Cheaper cycles"). A superinstruction keeps its first instruction's
// payloads a, b, dst and nsites; the second instruction's operands move to
// c (and d), its destination or branch target to target, and, where the
// second has fewer than two operands, its pc to d for trap reports and the
// second cycle's housekeeping. The second instruction keeps its standalone
// form at its own pc, so a branch to it stays valid.
var superinstructions = []superinstruction{
	{ir.Add, ir.Add, opAdd2, true},
	{ir.FAdd, ir.FAdd, opFAdd2, true},
	{ir.FMul, ir.FMul, opFMul2, true},
	{ir.ICmpSLT, ir.ICmpSLT, opICmpSLT2, true},
	{ir.Load, ir.FpmFetch, opLoadFetch, true},
	{ir.Add, ir.Load, opAddLoad, false},
	{ir.ICmpSLT, ir.Bz, opICmpSLTBz, false},
	{ir.Add, ir.Jmp, opAddJmp, false},
}

type superinstruction struct {
	first, second, op ir.Op
	// twin: the second is the first's FlagSecondary twin (full arrays);
	// otherwise both are application instructions (clean arrays).
	twin bool
}

// superOf returns the table entry of in, the instruction at pc, and the pc
// of its second instruction; nil when in is not a superinstruction.
func superOf(in *dinstr, pc int) (*superinstruction, int) {
	for i := range superinstructions {
		if sp := &superinstructions[i]; sp.op == in.op {
			if sp.first == sp.second {
				return sp, pc + 1
			}
			return sp, int(in.d)
		}
	}
	return nil, 0
}

// Fusion is one decoded instruction that retires more than its own pc: a
// consumer that absorbed the fim_inj group before it, a superinstruction,
// or both.
type Fusion struct {
	Func string
	// Clean reports the clean array; otherwise the full array.
	Clean bool
	PC    int
	// Sites is the number of fim_inj sites absorbed from PC-Sites..PC-1.
	Sites int
	// Second is a superinstruction's second pc, or -1.
	Second int
	// Twin marks a primary fused with its FlagSecondary twin.
	Twin bool
	// Op is "first+second" for a superinstruction, else the opcode.
	Op string
}

// Fusions lists, function by function, every fusion in prog's decoded full
// and clean arrays: the static answer to whether the interpreter's fast
// paths exist for a program. Plain programs, and instrumented ones without
// a PairedRegs declaration, have none.
func Fusions(prog *ir.Program) []Fusion {
	var out []Fusion
	for _, df := range decodedOf(prog).funcs {
		for i, arr := range [][]dinstr{df.full, df.clean} {
			for pc := range arr {
				in := &arr[pc]
				f := Fusion{Func: df.fn.Name, Clean: i == 1, PC: pc, Sites: int(in.nsites), Second: -1, Op: in.op.String()}
				if sp, spc := superOf(in, pc); sp != nil {
					f.Second, f.Twin, f.Op = spc, sp.twin, sp.first.String()+"+"+sp.second.String()
				}
				if f.Sites > 0 || f.Second >= 0 {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// dfunc is one decoded function: its four code arrays (see above).
type dfunc struct {
	fn       *ir.Func
	code     []dinstr
	full     []dinstr
	clean    []dinstr
	observed []dinstr
}

// dprog is the decoded program, cached on the ir.Program so every VM (and
// every experiment of a campaign) shares one decode.
type dprog struct {
	funcs []dfunc
	// cleanOK reports that every function is either uninstrumented or
	// carries the PairedRegs dual-chain layout declaration, so the
	// clean-mode interpreter's shadow-register reconstruction is sound
	// program-wide. Instrumented programs loaded through a path that does
	// not set PairedRegs (e.g. the text parser) get cleanOK=false and run
	// the 1:1 interpreter everywhere.
	cleanOK bool
	// observeOnce guards the lazy build of every function's observed array.
	observeOnce sync.Once
}

// buildObserved lowers every function's observed code array on first use,
// so a run without ablations never pays for it. An opObserve absorbs no
// site (its nsites is only the branch marker) and costs no cycle; the
// code instruction it hands over to does the accounting.
func (d *dprog) buildObserved() {
	d.observeOnce.Do(func() {
		for i := range d.funcs {
			df := &d.funcs[i]
			obs := make([]dinstr, len(df.code))
			for pc := range obs {
				obs[pc] = dinstr{op: opObserve, src: df.code[pc].src, nsites: 1}
			}
			df.observed = obs
		}
	})
}

// decodedOf returns prog's decoded form, lowering it on first use.
func decodedOf(prog *ir.Program) *dprog {
	if d, ok := prog.Exec().(*dprog); ok && d != nil {
		return d
	}
	d := &dprog{funcs: make([]dfunc, len(prog.Funcs)), cleanOK: true}
	for i, f := range prog.Funcs {
		code := decodeFunc(f)
		df := dfunc{fn: f, code: code, full: code, clean: code}
		if instrumented(f) {
			if f.PairedRegs == 0 {
				// Pairing unknown: shadow reconstruction is impossible, so
				// the clean interpreter must never run this code, and fim_inj
				// temporaries cannot be told from dual-chain registers.
				d.cleanOK = false
			} else {
				df.full = fuse(f, slices.Clone(code), true)
				df.clean = fuse(f, buildClean(f, code), false)
			}
		}
		d.funcs[i] = df
	}
	prog.StoreExec(d)
	return d
}

func instrumented(f *ir.Func) bool {
	for pc := range f.Code {
		in := &f.Code[pc]
		if in.Flags&ir.FlagSecondary != 0 || in.Op == ir.FpmFetch || in.Op == ir.FpmStore || in.Op == ir.FimInj {
			return true
		}
	}
	return false
}

// buildClean returns a copy of f's code with the clean-mode substitutions:
// while a rank's state is provably fault-free (empty contamination table,
// shadow registers mirroring primaries), the entire secondary chain is
// redundant — every FlagSecondary instruction and fpm_fetch only
// (re)computes a shadow value equal to its primary twin, and fpm_store's
// table lookup can never observe a divergence. So secondary instructions
// and fpm_fetch become opSkip, and fpm_store becomes the plain store it
// replaced (same cost, so cycle accounting is unchanged). f must declare
// PairedRegs.
func buildClean(f *ir.Func, code []dinstr) []dinstr {
	clean := slices.Clone(code)
	for pc := range f.Code {
		in := &f.Code[pc]
		d := &clean[pc]
		switch {
		case in.Flags&ir.FlagSecondary != 0 || in.Op == ir.FpmFetch:
			*d = dinstr{op: opSkip, src: in}
		case in.Op == ir.FpmStore:
			// fpm_store(valP, valS, addrP, addrS) degenerates to
			// Store val=A addr=C: with an empty table and converged
			// shadows, addrP==addrS, valS==valP and Observe removes
			// nothing it would have recorded.
			nd := dinstr{op: ir.Store, src: in, cost: 1, a: d.a, b: d.c}
			if d.kinds&kA != 0 {
				nd.kinds |= kA
			}
			if d.kinds&kC != 0 {
				nd.kinds |= kB
			}
			*d = nd
		}
	}
	return clean
}

// fuse turns arr, a copy of f's code (or of its clean substitution), into
// a fused array: fim_inj groups fold into their consumers, the
// fall-through chain is threaded over skipped pcs, branches that land on a
// skipped pc are retargeted past it, and superinstructions of the array's
// kind (twin for full, not twin for clean) are formed along the threaded
// chain.
func fuse(f *ir.Func, arr []dinstr, twin bool) []dinstr {
	fuseInj(f, arr)
	// Thread the fall-through chain: every instruction's next (and every
	// opSkip's target) points directly at the next retained pc, so
	// straight-line flow never dispatches a skipped instruction. A function
	// always ends with a retained Ret, so the chain terminates.
	next := len(arr)
	for pc := len(arr) - 1; pc >= 0; pc-- {
		arr[pc].next = int32(next)
		if arr[pc].op == opSkip {
			arr[pc].target = int32(next)
		} else {
			next = pc
		}
	}
	// Redirect branch targets that land on a skipped pc to the first
	// retained pc after it (the skips compute nothing here, so the jump is
	// equivalent). Chained targets make this a single hop.
	for pc := range arr {
		d := &arr[pc]
		switch d.op {
		case ir.Jmp, ir.Bnz, ir.Bz:
			if t := int(d.target); t < len(arr) && arr[t].op == opSkip {
				d.target = arr[t].target
			}
		}
	}
	pairUp(arr, twin)
	return arr
}

// pairUp forms arr's superinstructions. The second instruction must absorb
// no fim_inj sites (so a fused-site bail still replays from the head's
// pc-nsites) and is never itself a head, so it keeps its standalone form.
func pairUp(arr []dinstr, twin bool) {
	second := make([]bool, len(arr))
	for p := range arr {
		d := &arr[p]
		s := int(d.next)
		if second[p] || s >= len(arr) || arr[s].nsites != 0 {
			continue
		}
		e := &arr[s]
		for _, sp := range superinstructions {
			if sp.twin != twin || d.op != sp.first || e.op != sp.second {
				continue
			}
			if twin && (s != p+1 || d.src.Flags&ir.FlagSecondary != 0 || e.src.Flags&ir.FlagSecondary == 0) {
				continue
			}
			nd := *d
			nd.op = sp.op
			nd.next = e.next
			nd.c = e.a
			nd.kinds = d.kinds&(kA|kB) | (e.kinds&(kA|kB))<<2
			switch sp.second {
			case ir.Jmp, ir.Bz:
				nd.target = e.target
			default:
				nd.target = e.dst
			}
			if sp.first == sp.second {
				nd.d = e.b // a binary twin: no trap, no second cycle
			} else {
				nd.d = uint64(s)
			}
			*d = nd
			second[s] = true
			break
		}
	}
}

// fuseInj folds fim_inj groups into their consumers. The instrumentation
// emits, for every injectable instruction, one fim_inj per source operand
// into a fresh temporary register immediately before the instruction that
// consumes those temporaries. While no planned fault targets the group's
// site range, each fim_inj is a pure register move — so the consumer can
// read the original operands directly and advance the site counter by the
// group size in one step, turning (group size + 1) dispatches into one.
// The fused fim_injs become opSkip so straight-line flow hops over them;
// their pcs stay valid (a branch can land on one), and code still holds
// the original fim_injs for a fault inside the group.
//
// Fusion is conservative: the consumer must carry all of its operands in
// decoded payloads (ruling out Intrin/Call/Ret, which read src.Args), every
// temporary in the group must be consumed by it, and the temporaries must
// lie outside the paired-register region (no shadow twin loses its write).
// Unfused groups simply keep their per-instruction fast path.
func fuseInj(f *ir.Func, arr []dinstr) {
	for pc := 0; pc < len(arr); pc++ {
		if arr[pc].op != ir.FimInj {
			continue
		}
		start := pc
		for pc < len(arr) && arr[pc].op == ir.FimInj {
			pc++
		}
		n := pc - start
		if pc >= len(arr) || n > 255 {
			continue
		}
		con := &arr[pc]
		switch con.op {
		case ir.Intrin, ir.Call, ir.Ret, ir.FimInj, opSkip, ir.Nop:
			continue
		}
		// Substitute each temporary with its fim_inj source on a copy, and
		// verify every group member is consumed exactly there.
		nd := *con
		used := make([]bool, n)
		ok := true
		sub := func(payload uint64, bit uint8) (uint64, uint8, bool) {
			for i := 0; i < n; i++ {
				inj := &arr[start+i]
				if payload != uint64(inj.dst) {
					continue
				}
				used[i] = true
				if inj.kinds&kA != 0 {
					return inj.a, bit, true
				}
				return inj.a, 0, true
			}
			return payload, bit, true
		}
		for i := 0; i < n; i++ {
			inj := &arr[start+i]
			if int(inj.dst) < f.PairedRegs || inj.kinds&(kB|kC|kD) != 0 {
				ok = false // not a throwaway temp, or unexpected shape
			}
		}
		if ok {
			if nd.kinds&kA != 0 {
				var bit uint8
				nd.a, bit, _ = sub(nd.a, kA)
				nd.kinds = nd.kinds&^kA | bit
			}
			if nd.kinds&kB != 0 {
				var bit uint8
				nd.b, bit, _ = sub(nd.b, kB)
				nd.kinds = nd.kinds&^kB | bit
			}
			if nd.kinds&kC != 0 {
				var bit uint8
				nd.c, bit, _ = sub(nd.c, kC)
				nd.kinds = nd.kinds&^kC | bit
			}
			if nd.kinds&kD != 0 {
				var bit uint8
				nd.d, bit, _ = sub(nd.d, kD)
				nd.kinds = nd.kinds&^kD | bit
			}
			for i := range used {
				if !used[i] {
					ok = false // a group member the consumer never reads
				}
			}
		}
		if !ok {
			continue
		}
		nd.nsites = uint8(n)
		*con = nd
		for i := 0; i < n; i++ {
			arr[start+i] = dinstr{op: opSkip, src: arr[start+i].src}
		}
	}
}

func decodeFunc(f *ir.Func) []dinstr {
	code := make([]dinstr, len(f.Code))
	for pc := range f.Code {
		in := &f.Code[pc]
		d := &code[pc]
		d.op = in.Op
		d.src = in
		d.dst = int32(in.Dst)
		d.target = in.Target
		d.next = int32(pc + 1)
		if in.Flags&ir.FlagSecondary == 0 && in.Op != ir.FimInj && in.Op != ir.FpmFetch {
			d.cost = 1
		}
		d.a = payload(in.A, &d.kinds, kA)
		d.b = payload(in.B, &d.kinds, kB)
		d.c = payload(in.C, &d.kinds, kC)
		d.d = payload(in.D, &d.kinds, kD)
	}
	return code
}

func payload(o ir.Operand, kinds *uint8, bit uint8) uint64 {
	if o.Kind == ir.KindReg {
		*kinds |= bit
		return uint64(o.Reg)
	}
	return o.Imm
}
