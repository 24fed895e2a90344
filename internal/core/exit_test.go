package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/vm"
)

// buildBranchProg builds a single-process program whose every step takes
// one of two arms of equal length and equal site count, which store
// different constants to the step's slot of an array. A fault that flips
// the branch therefore leaves the table empty (both chains store the same
// constant), the registers reconverged (the branch inputs are overwritten
// after the arms) and memory different from the golden run's: the state
// FPM cannot see and the early exit must not take for golden. Each step
// also computes and discards a masked value, whose faults vanish.
func buildBranchProg(steps int64) *ir.Program {
	b := ir.NewBuilder()
	acc := b.Global("acc", steps)
	f := b.Func("main", 0, 0)
	s := f.NewReg()
	m := f.NewReg()
	c := f.NewReg()
	v := f.NewReg()
	dead := f.NewReg()
	i := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Tick(ir.R(s))
		f.Op3(ir.Add, dead, ir.R(s), ir.ImmI(5))
		f.Mov(dead, ir.ImmI(0))
		f.Op3(ir.Add, m, ir.R(s), ir.ImmI(0))
		f.Op3(ir.ICmpSLT, c, ir.R(m), ir.ImmI(1<<20))
		addr := f.Add(ir.ImmI(acc), ir.R(s))
		f.IfElse(ir.R(c), func() {
			f.ConstF(v, 1)
			f.Store(ir.R(v), ir.R(addr))
		}, func() {
			f.ConstF(v, 2)
			f.Store(ir.R(v), ir.R(addr))
			f.Mov(dead, ir.ImmI(0)) // the cycle of the then-arm's jump to the join
		})
		f.Mov(m, ir.ImmI(0))
		f.Mov(c, ir.ImmI(0))
		f.Mov(v, ir.ImmI(0))
	})
	sum := f.CF(0)
	f.For(i, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Op3(ir.FAdd, sum, ir.R(sum), ir.R(f.Ld(ir.ImmI(acc), ir.R(i))))
	})
	f.OutputF(ir.R(sum))
	f.Ret()
	return b.MustBuild()
}

// buildInFlightProg builds a two-rank program in which, every step, rank 0
// computes a value, stores it, sends the stored word to rank 1, recomputes
// the value and stores it again; then both ranks meet at a barrier, and
// only after it does rank 1 receive the word and add it into an
// accumulator. A fault in the first computation therefore reaches rank 1
// only through a message in flight across the barrier's cut: at that cut
// rank 0's store has been cleansed and rank 1 has received nothing, so
// both ranks are golden-equal and only the world differs from the golden
// capture. Each step also computes and discards a masked value on both
// ranks, whose faults vanish.
func buildInFlightProg(steps int64) *ir.Program {
	b := ir.NewBuilder()
	buf := b.Global("buf", 1)
	in := b.Global("in", 1)
	acc := b.Global("acc", 1)
	f := b.Func("main", 0, 0)
	rank := f.MPIRank()
	s := f.NewReg()
	x := f.NewReg()
	dead := f.NewReg()
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.Op3(ir.Add, dead, ir.R(s), ir.ImmI(5))
		f.Mov(dead, ir.ImmI(0))
		f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(0))), func() {
			f.Op3(ir.Mul, x, ir.R(s), ir.ImmI(3))
			f.Store(ir.R(x), ir.ImmI(buf))
			f.MPISend(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(1), ir.ImmI(5))
			f.Op3(ir.Mul, x, ir.R(s), ir.ImmI(3))
			f.Store(ir.R(x), ir.ImmI(buf))
			f.Mov(x, ir.ImmI(0))
		})
		f.MPIBarrier()
		f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(1))), func() {
			f.MPIRecv(ir.ImmI(in), ir.ImmI(1), ir.ImmI(0), ir.ImmI(5))
			f.Store(ir.R(f.Add(ir.R(f.Load(ir.ImmI(acc))), ir.R(f.Load(ir.ImmI(in))))), ir.ImmI(acc))
		})
	})
	f.OutputI(ir.R(f.Load(ir.ImmI(acc))))
	f.Ret()
	return b.MustBuild()
}

// resultView is a RunOutcome without its telemetry (restore stats,
// backing, the exit itself), in comparable form: outputs as bit patterns,
// the spread as its series.
type resultView struct {
	O       RunOutcome
	Spread  []trace.SpreadPoint
	Outputs [][]uint64
}

func viewOf(o RunOutcome) resultView {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	v := resultView{Spread: o.Spread.Series(), Outputs: [][]uint64{bits(o.Outputs)}}
	o.Spread, o.Outputs = nil, nil
	o.RestoreDur, o.Forked, o.RestoreBytes = 0, false, 0
	o.BackedBytes, o.Exited, o.SkippedCycles = 0, false, 0
	o.GhostExits, o.GhostResumes = 0, 0
	o.Ranks = append([]RankResult(nil), o.Ranks...)
	for r := range o.Ranks {
		v.Outputs = append(v.Outputs, bits(o.Ranks[r].Outputs))
		o.Ranks[r].Outputs, o.Ranks[r].Ghost = nil, false
	}
	v.O = o
	return v
}

// exitCase runs every single-bit fault of a program with and without the
// golden cuts to end at and the golden traffic to replay, and checks the
// two runs agree.
type exitCase struct {
	inst    *ir.Program
	cfg     RunConfig
	golden  RunOutcome
	snaps   []*CampaignSnapshot
	traffic Traffic
}

func newExitCase(t *testing.T, prog *ir.Program, ranks int) *exitCase {
	t.Helper()
	inst, err := transform.Instrument(prog, transform.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Ranks: ranks, SampleEvery: 4, Timeout: 5 * time.Second}
	golden, cuts := RunGoldenProfile(inst, cfg)
	if golden.Err != nil || len(cuts) < 4 {
		t.Fatalf("golden run: err %v, %d cuts", golden.Err, len(cuts))
	}
	seqs := make([]uint64, len(cuts))
	for i, c := range cuts {
		seqs[i] = c.Seq
	}
	_, snaps, _, traffic := RunGoldenCaptureSites(inst, cfg, seqs, false)
	if len(snaps) != len(cuts) {
		t.Fatalf("captured %d of %d cuts", len(snaps), len(cuts))
	}
	cfg.CycleLimit = 4 * golden.Cycles
	return &exitCase{inst: inst, cfg: cfg, golden: golden, snaps: snaps, traffic: traffic}
}

// runs executes plan to its end and again with the captured cuts past its
// faults to end at and the traffic to replay, and returns both outcomes.
func (c *exitCase) runs(plan inject.Plan) (ref, got RunOutcome) {
	cfg := c.cfg
	cfg.Plan = plan
	ref = Run(c.inst, cfg)
	for i, cs := range c.snaps {
		if cs.Cut.Past(plan) {
			cfg.Tail = Tail{Cuts: c.snaps[i:], Golden: &c.golden, Traffic: c.traffic}
			break
		}
	}
	return ref, Run(c.inst, cfg)
}

// run is runs, failing t if the two runs differ.
func (c *exitCase) run(t *testing.T, plan inject.Plan) (ref, got RunOutcome) {
	t.Helper()
	ref, got = c.runs(plan)
	if (ref.Err == nil) != (got.Err == nil) || trapKind(ref.Err) != trapKind(got.Err) {
		t.Fatalf("%v: run with cuts ended with %v, full run with %v", plan.Faults, got.Err, ref.Err)
	}
	// A crashed run never exits, and which peers die as casualties is
	// scheduling-dependent (ROADMAP item 1); the rest must match exactly.
	if ref.Err == nil && !reflect.DeepEqual(viewOf(got), viewOf(ref)) {
		t.Fatalf("%v: run with cuts diverged from the full run\n got: %+v\nwant: %+v", plan.Faults, viewOf(got), viewOf(ref))
	}
	if got.Exited && (ref.Err != nil || !reflect.DeepEqual(ref.Outputs, c.golden.Outputs)) {
		t.Fatalf("%v: exited, but the full run does not end golden", plan.Faults)
	}
	return ref, got
}

// TestGoldenExitNeverHidesADivergence drives every single-bit fault of two
// hand-written programs through runs that may end at golden-equal cuts and
// through full runs, which must agree on the whole RunOutcome. Each
// program has faults that vanish, which must end early, and faults that
// leave every rank's registers and table golden while something else is
// not: memory written by a flipped branch (the state FPM cannot see), or a
// corrupted message in flight across the cut. Those must run to the end.
func TestGoldenExitNeverHidesADivergence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prog   *ir.Program
		ranks  int
		hidden func(ref RunOutcome, golden RunOutcome) bool
	}{
		{"flipped branch", buildBranchProg(8), 1, func(ref, golden RunOutcome) bool {
			// Wrong output that the table never saw.
			return ref.Err == nil && !ref.Ever && ref.Outputs[0] != golden.Outputs[0]
		}},
		{"message in flight", buildInFlightProg(6), 2, func(ref, golden RunOutcome) bool {
			// Rank 0 cleansed its buffer; the corruption reached rank 1
			// by message only.
			r0, r1 := ref.Ranks[0], ref.Ranks[1]
			return ref.Err == nil && r0.Ever && r0.FinalCML == 0 && r1.Ever && ref.Outputs[1] != golden.Outputs[1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newExitCase(t, tc.prog, tc.ranks)
			before := GoldenExits()
			var exits, hidden int
			for rank := 0; rank < tc.ranks; rank++ {
				for site := uint64(0); site < c.golden.Ranks[rank].Sites; site++ {
					for _, bit := range []uint{2, 40} {
						plan := inject.Plan{Faults: []inject.Fault{{Rank: rank, Site: site, Bit: bit}}}
						ref, got := c.run(t, plan)
						if got.Exited {
							exits++
						}
						if tc.hidden(ref, c.golden) {
							hidden++
							if got.Exited {
								t.Errorf("%v: ended at a golden-equal cut although it diverges", plan.Faults)
							}
						}
					}
				}
			}
			if exits == 0 || GoldenExits()-before != uint64(exits) {
				t.Errorf("%d runs exited, GoldenExits advanced %d: want both > 0 and equal", exits, GoldenExits()-before)
			}
			if hidden == 0 {
				t.Error("no fault produced the divergence the cuts must not hide")
			}
			t.Logf("%d exits, %d runs golden-equal but for the hidden divergence", exits, hidden)
		})
	}
}

// TestGoldenExitMultiFault: a run ends only at a cut past every planned
// fault, and a second fault after an exitable first one still lands.
func TestGoldenExitMultiFault(t *testing.T) {
	c := newExitCase(t, buildBranchProg(8), 1)
	n := c.golden.Ranks[0].Sites
	for first := uint64(0); first < n; first += 3 {
		for _, gap := range []uint64{1, n / 4, n / 2} {
			plan := inject.Plan{Faults: []inject.Fault{{Site: first, Bit: 2}, {Site: first + gap, Bit: 40}}}
			if first+gap >= n {
				continue
			}
			_, got := c.run(t, plan)
			if got.Exited && len(got.Ranks[0].InjCycles) != 2 {
				t.Errorf("%v: exited after %d of 2 faults fired", plan.Faults, len(got.Ranks[0].InjCycles))
			}
		}
	}
}

// buildGhostProg builds a two-rank program whose every step has rank 0
// send a word of its array arr to rank 1, both ranks sum a contribution —
// rank 0's from its array brr — in an allreduce, and both meet at a
// barrier. Both arrays are filled before the first step, so a fault there
// sits in rank 0's memory, keeping it from the golden state, until the
// step that sends it. Rank 1 meanwhile is golden-equal at every cut and
// becomes a ghost, to be surprised by the message or the allreduce result.
// Rank 0 also holds a private word it never sends, a value it checks
// halfway and aborts on when wrong, and two trip counts: lim bounds its
// sends and lim2 its steps, so a lowered lim leaves rank 1 waiting for a
// message while rank 0 waits in the allreduce (a deadlock), a lowered lim2
// leaves rank 1 waiting for a rank that has finished, and a raised one
// leaves rank 0 waiting in an allreduce after rank 1 has finished.
func buildGhostProg(steps int64) *ir.Program {
	b := ir.NewBuilder()
	arr := b.Global("arr", steps)
	brr := b.Global("brr", steps)
	keep := b.Global("keep", 1)
	check := b.Global("check", 1)
	in := b.Global("in", 1)
	tmp := b.Global("tmp", 1)
	red := b.Global("red", 1)
	acc := b.Global("acc", 1)
	f := b.Func("main", 0, 0)
	addInto := func(dst, src int64) {
		f.Store(ir.R(f.Add(ir.R(f.Load(ir.ImmI(dst))), ir.R(f.Load(ir.ImmI(src))))), ir.ImmI(dst))
	}
	rank := f.MPIRank()
	r0 := f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(0))
	i := f.NewReg()
	f.For(i, ir.ImmI(0), ir.ImmI(steps), func() {
		f.St(ir.R(f.Mul(ir.R(i), ir.ImmI(3))), ir.ImmI(arr), ir.R(i))
		f.St(ir.R(f.Add(ir.R(f.Mul(ir.R(i), ir.ImmI(5))), ir.ImmI(1))), ir.ImmI(brr), ir.R(i))
	})
	// Register operands, so that each computation below is a fault site.
	seven, nsteps := f.CI(7), f.CI(steps)
	f.Store(ir.R(f.Mul(ir.R(rank), ir.ImmI(11))), ir.ImmI(keep))
	f.Store(ir.R(f.Add(ir.R(seven), ir.ImmI(0))), ir.ImmI(check))
	lim := f.Add(ir.R(nsteps), ir.ImmI(0))
	lim2 := f.Add(ir.R(nsteps), ir.ImmI(0))
	n := f.Select(ir.R(r0), ir.R(lim2), ir.ImmI(steps))
	s, pad := f.NewReg(), f.NewReg()
	f.For(s, ir.ImmI(0), ir.R(n), func() {
		f.If(ir.R(r0), func() {
			f.If(ir.R(f.ICmp(ir.ICmpSLT, ir.R(s), ir.R(lim))), func() {
				f.MPISend(ir.R(f.Idx(ir.ImmI(arr), ir.R(s))), ir.ImmI(1), ir.ImmI(1), ir.ImmI(1))
			})
			f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(s), ir.ImmI(steps/2))), func() {
				f.If(ir.R(f.ICmp(ir.ICmpNE, ir.R(f.Load(ir.ImmI(check))), ir.ImmI(7))), func() {
					f.MPIAbort(ir.ImmI(3))
				})
			})
		})
		f.If(ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(1))), func() {
			f.MPIRecv(ir.ImmI(in), ir.ImmI(1), ir.ImmI(0), ir.ImmI(1))
			addInto(acc, in)
		})
		// Straight-line work without sites: a catch-up over a few steps
		// runs past the VM's abort poll, every 1024 cycles.
		for k := int64(0); k < 400; k++ {
			f.Mov(pad, ir.ImmI(k))
		}
		mine := f.Ld(ir.ImmI(brr), ir.R(f.SRem(ir.R(s), ir.ImmI(steps))))
		f.Store(ir.R(f.Select(ir.R(r0), ir.R(mine), ir.R(s))), ir.ImmI(tmp))
		f.MPIAllreduceI(ir.ImmI(tmp), ir.ImmI(red), ir.ImmI(1), ir.ReduceSum)
		addInto(acc, red)
		f.MPIBarrier()
	})
	f.OutputI(ir.R(f.Load(ir.ImmI(acc))))
	f.OutputI(ir.R(f.Load(ir.ImmI(keep))))
	f.Ret()
	return b.MustBuild()
}

// withoutCasualties collapses the ranks a peer's abort cut down — where,
// goroutine scheduling decides (ROADMAP item 1) — to their casualty mark.
func withoutCasualties(v resultView) resultView {
	v.O.Ranks = append([]RankResult(nil), v.O.Ranks...)
	for r := range v.O.Ranks {
		if v.O.Ranks[r].Casualty {
			v.O.Ranks[r] = RankResult{Casualty: true}
			v.Outputs[r+1] = nil
		}
	}
	return v
}

// TestGhostReplayMatchesFullRun drives every single-bit fault of
// buildGhostProg, at bits that raise and lower its trip counts, through
// runs whose golden-equal ranks may replay the golden traffic and through
// full runs, which must agree on the whole RunOutcome. Ranks cut down by a
// peer's trap are compared by their casualty mark only; runs where no rank
// trapped on its own, deadlocked and deserted ones included, must match
// exactly. The cases the replay must get right each have to occur:
//   - (a) a ghost resumes at a contaminated message or allreduce result
//     and ends contaminated, as the full run does;
//   - (b) a ghost waits on a send its peer's lowered trip count skipped,
//     and the run ends in the full run's deadlock or desertion, with the
//     same traps on every rank;
//   - (c) a peer calls MPI_Abort while the rank is a ghost, which ends a
//     casualty;
//   - (d) a ghost reaches the end of its log, and the diverged peer that
//     waits on it is deserted as in the full run.
func TestGhostReplayMatchesFullRun(t *testing.T) {
	c := newExitCase(t, buildGhostProg(12), 2)
	exits, resumes := GhostExits(), GhostResumes()
	var runs, ghostExits, ghostResumes int
	var resumedContaminated, deadlocks, deserted, aborted, endedDeserted int
	desertion := mpi.ErrDeserted.Error()
	for rank := 0; rank < 2; rank++ {
		for site := uint64(0); site < c.golden.Ranks[rank].Sites; site++ {
			for _, bit := range []uint{2, 3, 40} {
				plan := inject.Plan{Faults: []inject.Fault{{Rank: rank, Site: site, Bit: bit}}}
				ref, got := c.runs(plan)
				runs++
				ghostExits += got.GhostExits
				ghostResumes += got.GhostResumes
				if got.Timeout || ref.Timeout {
					t.Fatalf("%v: a blocking call ran into the wall-clock timeout", plan.Faults)
				}
				gv, rv := viewOf(got), viewOf(ref)
				if !reflect.DeepEqual(withoutCasualties(gv), withoutCasualties(rv)) {
					t.Fatalf("%v: run with ghosts diverged from the full run\n got: %+v\nwant: %+v", plan.Faults, gv, rv)
				}
				// Where no rank trapped on its own, every failing rank was
				// parked in a call the liveness verdict ended: exact.
				abort := trapKind(ref.Err) == vm.TrapAbort
				if (ref.Err == nil || trapKind(ref.Err) == vm.TrapPeerFailure) && !reflect.DeepEqual(gv, rv) {
					t.Fatalf("%v: run with ghosts trapped differently from the full run\n got: %+v\nwant: %+v", plan.Faults, gv, rv)
				}
				for r, rr := range got.Ranks {
					if rr.Ghost && (rr.Err != nil || rr.FinalCML != 0 || rr.Cycles != c.golden.Ranks[r].Cycles) {
						t.Errorf("%v: rank %d ended as a ghost with err %v, CML %d, %d cycles", plan.Faults, r, rr.Err, rr.FinalCML, rr.Cycles)
					}
				}
				other := got.Ranks[1-rank]
				switch {
				case got.GhostResumes > 0 && ref.Err == nil && ref.Ranks[1-rank].Ever:
					resumedContaminated++
				case got.GhostResumes > 0 && ref.Deadlock:
					deadlocks++
				case got.GhostResumes > 0 && other.Err != nil && strings.Contains(other.Err.Error(), desertion):
					deserted++
				case got.GhostResumes > 0 && abort && other.Casualty:
					aborted++
				case other.Ghost && got.Ranks[rank].Err != nil && strings.Contains(got.Ranks[rank].Err.Error(), desertion):
					endedDeserted++
				}
			}
		}
	}
	if ghostExits == 0 || ghostResumes == 0 ||
		GhostExits()-exits != uint64(ghostExits) || GhostResumes()-resumes != uint64(ghostResumes) {
		t.Errorf("%d ranks ended as ghosts and %d resumed, GhostExits advanced %d and GhostResumes %d: want all > 0 and equal in pairs",
			ghostExits, ghostResumes, GhostExits()-exits, GhostResumes()-resumes)
	}
	for _, cs := range []struct {
		name string
		n    int
	}{
		{"(a) resumed at contaminated data", resumedContaminated},
		{"(b) deadlocked while a ghost", deadlocks},
		{"(b) deserted while a ghost", deserted},
		{"(c) a casualty of MPI_Abort while a ghost", aborted},
		{"(d) ended as a ghost, its peer deserted", endedDeserted},
	} {
		if cs.n == 0 {
			t.Errorf("no run %s", cs.name)
		}
	}
	t.Logf("%d runs: %d ranks ended as ghosts, %d resumed; (a) %d, (b) %d deadlocked and %d deserted, (c) %d, (d) %d",
		runs, ghostExits, ghostResumes, resumedContaminated, deadlocks, deserted, aborted, endedDeserted)
}
