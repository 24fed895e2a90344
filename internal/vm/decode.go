package vm

import (
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
// The lowering is strictly 1:1 with the original code: pc values, jump
// targets and frame semantics are unchanged, which keeps traps and
// snapshots byte-identical to the previous interpreter. Each function has
// up to three code arrays with that one pc numbering — full, clean (see
// buildClean) and observed (see buildObserved) — so the interpreter can
// switch arrays mid-function.

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
	// next is the fall-through successor pc. In full code it is always
	// pc+1; in clean code it is the next *retained* pc, so the interpreter
	// steps straight over skipped instrumentation without dispatching the
	// opSkip chain in between (threaded fall-through).
	next  int32
	op    ir.Op
	cost  uint8 // 1 when the instruction counts an application cycle
	kinds uint8
	// nsites is non-zero only in clean-mode code: this instruction absorbed
	// the nsites fim_inj instructions immediately preceding it (see
	// buildClean fusion). The interpreter advances the dynamic site counter
	// by nsites in one step, or — if a planned fault falls inside the
	// absorbed range — re-executes the group at pc-nsites under the full
	// interpreter. In observed code every opObserve carries 1 to take the
	// same cold branch.
	nsites uint8
}

// opSkip is a vm-private pseudo-opcode used only in clean-mode code arrays:
// it replaces an instruction whose execution is provably redundant while the
// rank is fault-free, and its target points at the next non-skipped pc, so
// one dispatch hops over a whole run of skipped instructions.
const opSkip = ir.Op(255)

// opObserve is a vm-private pseudo-opcode used only in observed code
// arrays. It never reaches the interpreter's switch: its non-zero nsites
// sends it down the fused-site cold branch, which runs the ablations'
// observe hook and then continues with the full-code instruction at the
// same pc, so the full and clean loops test nothing new.
const opObserve = ir.Op(254)

// dfunc is one decoded function. code is the full lowering; clean is the
// clean-mode variant (see buildClean) with identical pc numbering, sharing
// code's backing when the function has nothing to skip; observed is nil
// until an ablation run needs it (see buildObserved).
type dfunc struct {
	fn       *ir.Func
	code     []dinstr
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
	// the full interpreter everywhere.
	cleanOK bool
	// observeOnce guards the lazy build of every function's observed array.
	observeOnce sync.Once
}

// buildObserved lowers every function's observed code array on first use,
// so a run without ablations never pays for it. An opObserve absorbs no
// site (its nsites is only the branch marker) and costs no cycle; the
// full-code instruction it hands over to does the accounting.
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
		clean, ok := buildClean(f, code)
		d.funcs[i] = dfunc{fn: f, code: code, clean: clean}
		d.cleanOK = d.cleanOK && ok
	}
	prog.StoreExec(d)
	return d
}

// buildClean lowers f's clean-mode code array: while a rank's state is
// provably fault-free (empty contamination table, shadow registers
// mirroring primaries), the entire secondary chain is redundant — every
// FlagSecondary instruction and fpm_fetch only (re)computes a shadow value
// equal to its primary twin, and fpm_store's table lookup can never observe
// a divergence. So secondary instructions and fpm_fetch become opSkip
// chains, and fpm_store becomes the plain store it replaced (same cost, so
// cycle accounting is unchanged). pc numbering is preserved: branch
// targets, trap pcs and captured frame stacks are valid in both arrays,
// which is what lets the interpreter flip modes mid-function.
//
// The second return value reports whether clean-mode execution of this
// function is sound: true when the function has no instrumentation at all
// (clean aliases code) or declares its register pairing via PairedRegs.
func buildClean(f *ir.Func, code []dinstr) ([]dinstr, bool) {
	instrumented := false
	for pc := range f.Code {
		in := &f.Code[pc]
		if in.Flags&ir.FlagSecondary != 0 || in.Op == ir.FpmFetch || in.Op == ir.FpmStore || in.Op == ir.FimInj {
			instrumented = true
			break
		}
	}
	if !instrumented {
		return code, true
	}
	if f.PairedRegs == 0 {
		// Instrumented but pairing unknown: shadow reconstruction is
		// impossible, so the clean interpreter must never run this code.
		return code, false
	}
	clean := make([]dinstr, len(code))
	copy(clean, code)
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
	fuseInj(f, clean)
	// Thread the fall-through chain: every instruction's next (and every
	// opSkip's target) points directly at the next retained pc, so
	// straight-line flow never dispatches a skipped instruction. A function
	// always ends with a retained Ret, so the chain terminates.
	next := len(clean)
	for pc := len(clean) - 1; pc >= 0; pc-- {
		if clean[pc].op == opSkip {
			clean[pc].target = int32(next)
			clean[pc].next = int32(next)
		} else {
			clean[pc].next = int32(next)
			next = pc
		}
	}
	// Redirect branch targets that land on a skipped pc to the first
	// retained pc after it (the skips compute nothing in clean mode, so the
	// jump is equivalent). Chained targets make this a single hop.
	for pc := range clean {
		d := &clean[pc]
		switch d.op {
		case ir.Jmp, ir.Bnz, ir.Bz:
			if t := int(d.target); t < len(clean) && clean[t].op == opSkip {
				d.target = clean[t].target
			}
		}
	}
	return clean, true
}

// fuseInj folds fim_inj groups into their consumers. The instrumentation
// emits, for every injectable instruction, one fim_inj per source operand
// into a fresh temporary register immediately before the instruction that
// consumes those temporaries. While no planned fault targets the group's
// site range, each fim_inj is a pure register move — so the consumer can
// read the original operands directly and advance the site counter by the
// group size in one step, turning (group size + 1) dispatches into one.
// The fused fim_injs become opSkip so straight-line flow hops over them;
// their pcs stay valid (a branch can land on one) and the full-mode bail
// path re-executes the group from pc-nsites, where the full array still
// holds the original fim_injs.
//
// Fusion is conservative: the consumer must carry all of its operands in
// decoded payloads (ruling out Intrin/Call/Ret, which read src.Args), every
// temporary in the group must be consumed by it, and the temporaries must
// lie outside the paired-register region (no shadow twin loses its write).
// Unfused groups simply keep their per-instruction fast path.
func fuseInj(f *ir.Func, clean []dinstr) {
	for pc := 0; pc < len(clean); pc++ {
		if clean[pc].op != ir.FimInj {
			continue
		}
		start := pc
		for pc < len(clean) && clean[pc].op == ir.FimInj {
			pc++
		}
		n := pc - start
		if pc >= len(clean) || n > 255 {
			continue
		}
		con := &clean[pc]
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
				inj := &clean[start+i]
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
			inj := &clean[start+i]
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
			clean[start+i] = dinstr{op: opSkip, src: clean[start+i].src}
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
