package vm

import (
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/ir"
)

// TestDecodeInvariants checks, on every instrumented application, the
// static properties that let the interpreter switch between the four code
// arrays mid-function without moving a cycle, a site or a trap pc.
func TestDecodeInvariants(t *testing.T) {
	if n := unsafe.Sizeof(dinstr{}); n != 56 {
		t.Errorf("dinstr is %d bytes, want 56", n)
	}
	for op := opSkip; op <= opAddJmp; op++ {
		if op.String() != "op?" {
			t.Errorf("vm-private opcode %d collides with ir opcode %q", op, op)
		}
	}
	for _, app := range apps.All() {
		prog, err := app.Build(app.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		d := decodedOf(instrumentT(t, prog))
		if !d.cleanOK {
			t.Fatalf("%s: instrumented program not clean-eligible", app.Name())
		}
		pairs := 0
		for _, df := range d.funcs {
			name := app.Name() + "." + df.fn.Name
			code := df.code
			for _, arr := range [][]dinstr{df.full, df.clean} {
				if len(arr) != len(code) || len(code) != len(df.fn.Code) {
					t.Fatalf("%s: arrays of %d and %d pcs for %d instructions", name, len(arr), len(code), len(df.fn.Code))
				}
			}
			// cost1 sums code's cycles over [from, to): what the 1:1
			// interpreter charges walking that range.
			cost1 := func(from, to int) int {
				n := 0
				for pc := from; pc < to; pc++ {
					n += int(code[pc].cost)
				}
				return n
			}
			for ai, arr := range [][]dinstr{df.full, df.clean} {
				kind := [...]string{"full", "clean"}[ai]
				for pc := range arr {
					in := &arr[pc]
					if in.op == opSkip {
						if t1 := int(in.target); t1 <= pc || t1 > len(arr) || cost1(pc, t1) != 0 {
							t.Errorf("%s %s pc %d: skip to %d crosses a charged instruction", name, kind, pc, in.target)
						}
						continue
					}
					for i := pc - int(in.nsites); i < pc; i++ {
						if code[i].op != ir.FimInj {
							t.Errorf("%s %s pc %d: absorbed pc %d is %v, not fim_inj", name, kind, pc, i, code[i].op)
						}
					}
					// What the interpreter charges for this dispatch: its
					// cost byte, plus the second cycle a two-cycle
					// superinstruction charges between its halves.
					charged := int(in.cost)
					if sp, spc := superOf(in, pc); sp != nil {
						pairs++
						if s := &arr[spc]; s.op != sp.second || s.nsites != 0 || in.next != s.next {
							t.Errorf("%s %s pc %d: second pc %d holds %v (nsites %d), not standalone %v", name, kind, pc, spc, s.op, s.nsites, sp.second)
						}
						if !sp.twin {
							charged++
						}
						if sp.second == ir.Jmp || sp.second == ir.Bz {
							if got := cost1(pc, spc+1); got != charged {
								t.Errorf("%s %s pc %d: branching half charges %d, code %d", name, kind, pc, charged, got)
							}
						}
					}
					if got := cost1(pc, int(in.next)); got != charged {
						t.Errorf("%s %s pc %d (%v): charges %d cycles up to pc %d, code %d", name, kind, pc, in.op, charged, in.next, got)
					}
					switch in.op {
					case ir.Jmp, ir.Bnz, ir.Bz, opICmpSLTBz, opAddJmp:
						orig := int(code[pc].target)
						if in.op == opICmpSLTBz || in.op == opAddJmp {
							orig = int(code[in.d].target)
						}
						if t1 := int(in.target); t1 < orig || cost1(orig, t1) != 0 {
							t.Errorf("%s %s pc %d: branch to %d retargeted to %d across a charged instruction", name, kind, pc, orig, t1)
						}
					}
				}
			}
			for pc := range code {
				if df.full[pc].nsites != df.clean[pc].nsites {
					t.Errorf("%s pc %d: full fuses %d sites, clean %d", name, pc, df.full[pc].nsites, df.clean[pc].nsites)
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no superinstructions", app.Name())
		}
	}
}

// TestPlainProgramRunsNoFusedCode: an uninstrumented program's full and
// clean arrays alias its 1:1 code, so plain programs (and the interpreter
// rungs of the benchmark) execute no fused instruction.
func TestPlainProgramRunsNoFusedCode(t *testing.T) {
	prog := buildTickedAccum(3)
	for _, df := range decodedOf(prog).funcs {
		if &df.full[0] != &df.code[0] || &df.clean[0] != &df.code[0] {
			t.Errorf("%s: fused arrays built for a plain function", df.fn.Name)
		}
	}
	if f := Fusions(prog); len(f) != 0 {
		t.Errorf("plain program lists %d fusions", len(f))
	}
}
