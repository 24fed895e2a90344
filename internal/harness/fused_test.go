package harness

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fusedCase is one application at one rank count: the instrumented
// program, its unpaired clone (which decodes to the 1:1 code array only,
// the differential reference), the fused arrays' static layout, and the
// golden run's map from each rank's dynamic sites to static fim_inj
// ordinals.
type fusedCase struct {
	inst, ref *ir.Program
	ranks     int
	golden    core.RunOutcome
	fusions   []vm.Fusion
	// occ[r][ord] lists, in order, rank r's dynamic sites of static
	// ordinal ord.
	occ []map[int32][]uint64
}

func newFusedCase(t testing.TB, app apps.App, ranks int) *fusedCase {
	t.Helper()
	params := app.TestParams()
	params.Ranks = ranks
	inst := buildInstrumented(t, app, params)
	golden, _, runs, _ := core.RunGoldenCaptureSites(inst, core.RunConfig{Ranks: ranks}, nil, true)
	if golden.Err != nil {
		t.Fatalf("%s r%d golden run: %v", app.Name(), ranks, golden.Err)
	}
	c := &fusedCase{inst: inst, ref: unpaired(inst), ranks: ranks, golden: golden, fusions: vm.Fusions(inst)}
	for _, rr := range runs {
		m := map[int32][]uint64{}
		for _, run := range rr {
			for i := range run.N {
				m[run.Static+int32(i)] = append(m[run.Static+int32(i)], run.Site+uint64(i))
			}
		}
		c.occ = append(c.occ, m)
	}
	return c
}

// ordinal is the static site ordinal of the fim_inj at pc of fn.
func (c *fusedCase) ordinal(fn string, pc int) int32 { return c.inst.FuncNamed(fn).Code[pc].Target }

// siteAt returns rank's dynamic occurrence of static ordinal ord at
// fraction frac of its occurrences.
func (c *fusedCase) siteAt(rank int, ord int32, frac float64) (uint64, bool) {
	occ := c.occ[rank][ord]
	if len(occ) == 0 {
		return 0, false
	}
	return occ[int(frac*float64(len(occ)-1))], true
}

func (c *fusedCase) config(plan inject.Plan, cycleLimit uint64) core.RunConfig {
	if cycleLimit == 0 {
		cycleLimit = 4 * c.golden.Cycles
	}
	return core.RunConfig{Ranks: c.ranks, Plan: plan, CycleLimit: cycleLimit, SampleEvery: 16}
}

// outcomeView is a RunOutcome in comparable form: outputs as bit
// patterns (a corrupted run may output NaN), the spread as its series,
// wall-clock restore time dropped. Every other field, every *vm.Trap field
// included, stays.
type outcomeView struct {
	O       core.RunOutcome
	Spread  []trace.SpreadPoint
	Outputs [][]uint64
}

func viewOf(o core.RunOutcome) outcomeView {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	v := outcomeView{Spread: o.Spread.Series(), Outputs: [][]uint64{bits(o.Outputs)}}
	o.Spread, o.Outputs, o.RestoreDur = nil, nil, 0
	o.Ranks = append([]core.RankResult(nil), o.Ranks...)
	for r := range o.Ranks {
		v.Outputs = append(v.Outputs, bits(o.Ranks[r].Outputs))
		o.Ranks[r].Outputs = nil
	}
	v.O = o
	return v
}

// check runs cfg on the fused program and on its 1:1 reference and fails
// t on any difference, returning the fused outcome.
func (c *fusedCase) check(t testing.TB, what string, cfg core.RunConfig) core.RunOutcome {
	t.Helper()
	replays := vm.FusedReplays()
	want := core.Run(c.ref, cfg)
	if vm.FusedReplays() != replays {
		t.Fatalf("%s: the 1:1 reference ran fused code", what)
	}
	got := core.Run(c.inst, cfg)
	if gv, wv := viewOf(got), viewOf(want); !reflect.DeepEqual(gv, wv) {
		t.Fatalf("%s: fused run diverged from the 1:1 reference\n got: %+v\nwant: %+v", what, gv, wv)
	}
	return got
}

// trapAt reports whether o's root cause is a trap of kind at fn:pc.
func trapAt(o core.RunOutcome, kind vm.TrapKind, fn string, pc int) bool {
	tr := vm.AsTrap(o.Err)
	return tr != nil && tr.Kind == kind && tr.Func == fn && tr.PC == pc
}

// TestFusedInterpMatchesReference is the differential gate for the fused
// code arrays: fim_inj groups fused into their consumers in the full and
// clean arrays, and the superinstructions. For every application, serial
// and at four ranks, every experiment below must produce the same
// core.RunOutcome — cycles, sites, outputs, traces, contamination, every
// trap field — as the unpaired clone, which runs the 1:1 code array only.
// The plans aim where fusion could go wrong:
//
//   - a fault at the first, middle and last site of every multi-site fused
//     group, so a fused-site cold branch must replay the group;
//   - two- and three-fault plans, so a replay also runs in a VM that has
//     already left clean mode;
//   - CycleLimit = k·1024 sweeps, whose traps must include one charged by
//     the second half of a two-cycle superinstruction;
//   - wild-address faults on the sites feeding add→load pairs, which must
//     trap at a load the full array runs as load+fpm_fetch.
func TestFusedInterpMatchesReference(t *testing.T) {
	replays := vm.FusedReplays()
	wild, secondHalf := 0, 0
	for _, app := range apps.All() {
		for _, ranks := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/r%d", app.Name(), ranks), func(t *testing.T) {
				c := newFusedCase(t, app, ranks)
				var groups, wilds []vm.Fusion
				cleanSeconds, loadFetch := map[string]bool{}, map[string]bool{}
				for _, f := range c.fusions {
					if !f.Clean && f.Sites >= 2 {
						groups = append(groups, f)
					}
					if f.Clean && f.Second >= 0 && !f.Twin {
						cleanSeconds[fmt.Sprint(f.Func, ":", f.Second)] = true
					}
					if f.Clean && f.Op == "add+load" && f.Sites > 0 {
						wilds = append(wilds, f)
					}
					if !f.Clean && f.Op == "load+fpm_fetch" {
						loadFetch[fmt.Sprint(f.Func, ":", f.PC)] = true
					}
				}
				var multi []inject.Fault // earlier faults in the same groups, for multi-fault plans
				bits := []uint{0, 3, 12, 33, 52, 62}
				for gi, f := range spread(groups, 40) {
					rank := gi % ranks
					for _, i := range []int{0, f.Sites / 2, f.Sites - 1} {
						ord := c.ordinal(f.Func, f.PC-f.Sites+i)
						site, ok := c.siteAt(rank, ord, 0.5)
						if !ok {
							continue
						}
						fault := inject.Fault{Rank: rank, Site: site, Bit: bits[(gi+i)%len(bits)]}
						c.check(t, fault.String(), c.config(inject.Plan{Faults: []inject.Fault{fault}}, 0))
						if s, ok := c.siteAt(rank, ord, 0.25); ok {
							multi = append(multi, inject.Fault{Rank: rank, Site: s, Bit: uint(i % 4)})
						}
					}
				}
				if len(multi) == 0 {
					t.Fatal("no multi-site fused group executes")
				}
				for k := 0; k+3 <= len(multi); k += 3 {
					for _, n := range []int{2, 3} {
						plan := inject.Plan{Faults: multi[k : k+n]}
						c.check(t, fmt.Sprint(plan.Faults), c.config(plan, 0))
					}
				}

				// Cycle-limit sweeps, fault-free (clean mode: two-cycle
				// superinstructions) and after an early fault (full mode).
				steps := c.golden.Cycles / 1024
				early := inject.Plan{Faults: multi[:1]}
				for k := uint64(1); k < steps; k += max(1, steps/60) {
					for _, plan := range []inject.Plan{{}, early} {
						o := c.check(t, fmt.Sprintf("cycle limit %d·1024 %v", k, plan.Faults), c.config(plan, k*1024))
						for _, rr := range o.Ranks {
							if tr := vm.AsTrap(rr.Err); tr != nil && tr.Kind == vm.TrapCycleLimit && cleanSeconds[fmt.Sprint(tr.Func, ":", tr.PC)] {
								secondHalf++
							}
						}
					}
				}

				// Wild addresses: flip a high bit of an operand of the add
				// whose sum the next load dereferences.
				for i, f := range spread(wilds, 24) {
					rank := i % ranks
					site, ok := c.siteAt(rank, c.ordinal(f.Func, f.PC-1), 0.5)
					if !ok {
						continue
					}
					o := c.check(t, "wild address", c.config(inject.Plan{Faults: []inject.Fault{{Rank: rank, Site: site, Bit: 40}}}, 0))
					if trapAt(o, vm.TrapOOB, f.Func, f.Second) && loadFetch[fmt.Sprint(f.Func, ":", f.Second)] {
						wild++
					}
				}
			})
		}
	}
	if vm.FusedReplays() == replays {
		t.Error("no fused group was ever replayed: the differential is vacuous")
	}
	if wild == 0 {
		t.Error("no wild-address fault trapped inside an add→load / load+fpm_fetch pair")
	}
	if secondHalf == 0 {
		t.Error("no cycle-limit trap landed on a superinstruction's second half")
	}
	t.Logf("fused replays %d, wild-address traps in pairs %d, cycle-limit traps at second halves %d",
		vm.FusedReplays()-replays, wild, secondHalf)
}

// spread picks at most n of fs, evenly spaced, so a large program's plans
// still cover its whole code.
func spread(fs []vm.Fusion, n int) []vm.Fusion {
	if len(fs) <= n {
		return fs
	}
	out := make([]vm.Fusion, n)
	for i := range out {
		out[i] = fs[i*len(fs)/n]
	}
	return out
}

var (
	fuzzCasesMu sync.Mutex
	fuzzCases   = map[[2]int]*fusedCase{}
)

// FuzzFusedInterp drives the fused-versus-1:1 differential over generated
// (application, ranks, fault sites, bits, cycle limit) tuples.
func FuzzFusedInterp(f *testing.F) {
	f.Add(uint8(0), false, uint64(100), uint64(0), uint8(3), uint8(0), uint16(0))
	f.Add(uint8(1), true, uint64(5000), uint64(1<<32|7000), uint8(62), uint8(1), uint16(0))
	f.Add(uint8(2), false, uint64(77), uint64(91), uint8(40), uint8(12), uint16(3))
	f.Add(uint8(3), true, uint64(123456), uint64(0), uint8(52), uint8(0), uint16(9))
	f.Add(uint8(4), false, uint64(999), uint64(2<<32|4), uint8(0), uint8(63), uint16(1))
	all := apps.All()
	f.Fuzz(func(t *testing.T, app uint8, four bool, site1, site2 uint64, bit1, bit2 uint8, limitK uint16) {
		ranks := 1
		if four {
			ranks = 4
		}
		key := [2]int{int(app) % len(all), ranks}
		fuzzCasesMu.Lock()
		c := fuzzCases[key]
		if c == nil {
			c = newFusedCase(t, all[key[0]], ranks)
			fuzzCases[key] = c
		}
		fuzzCasesMu.Unlock()
		counts := c.golden.SiteCounts()
		var plan inject.Plan
		for i, s := range []uint64{site1, site2} {
			rank := int(s>>32) % ranks
			if counts[rank] == 0 || (i == 1 && s == 0) {
				continue
			}
			plan.Faults = append(plan.Faults, inject.Fault{Rank: rank, Site: s % counts[rank], Bit: uint([]uint8{bit1, bit2}[i] % 64)})
		}
		c.check(t, fmt.Sprint(plan.Faults, " limit ", limitK), c.config(plan, uint64(limitK)*1024))
	})
}
