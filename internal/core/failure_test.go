package core

import (
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/vm"
)

// buildFailureProg builds a three-rank program: every step, rank 0 stores
// s to a ring of three slots, sends the slot stored two steps ago to rank
// 1, which calls MPI_Abort when it is out of range, and the table entry it
// indexes to rank 2; then all three meet at an allreduce.
func buildFailureProg(steps int64) *ir.Program {
	b := ir.NewBuilder()
	ring, table := b.Global("ring", 3), b.Global("table", 4)
	buf, in, red := b.Global("buf", 1), b.Global("in", 1), b.Global("red", 1)
	b.GlobalInit("table", []uint64{7, 8, 9, 10})
	f := b.Func("main", 0, 0)
	rank := f.MPIRank()
	s := f.NewReg()
	is := func(r int64) ir.Operand { return ir.R(f.ICmp(ir.ICmpEQ, ir.R(rank), ir.ImmI(r))) }
	f.For(s, ir.ImmI(0), ir.ImmI(steps), func() {
		f.If(is(0), func() {
			f.St(ir.R(f.Add(ir.R(s), ir.ImmI(0))), ir.ImmI(ring), ir.R(f.SRem(ir.R(s), ir.ImmI(3))))
			w := f.Ld(ir.ImmI(ring), ir.R(f.SRem(ir.R(f.Add(ir.R(s), ir.ImmI(1))), ir.ImmI(3))))
			f.Store(ir.R(w), ir.ImmI(buf))
			f.MPISend(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(1), ir.ImmI(1))
			f.Store(ir.R(f.Ld(ir.ImmI(table), ir.R(w))), ir.ImmI(buf))
			f.MPISend(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(2), ir.ImmI(2))
		})
		f.If(is(1), func() {
			f.MPIRecv(ir.ImmI(in), ir.ImmI(1), ir.ImmI(0), ir.ImmI(1))
			f.If(ir.R(f.ICmp(ir.ICmpSGT, ir.R(f.Load(ir.ImmI(in))), ir.ImmI(3))), func() { f.MPIAbort(ir.ImmI(5)) })
		})
		f.If(is(2), func() { f.MPIRecv(ir.ImmI(in), ir.ImmI(1), ir.ImmI(0), ir.ImmI(2)) })
		f.Store(ir.R(s), ir.ImmI(buf))
		f.MPIAllreduceI(ir.ImmI(buf), ir.R(f.Add(ir.ImmI(red), ir.R(f.Sub(ir.R(s), ir.R(s))))), ir.ImmI(1), ir.ReduceSum)
	})
	f.OutputI(ir.R(f.Load(ir.ImmI(red))))
	f.Ret()
	return b.MustBuild()
}

// TestFailedRankLeavesInLogicalTime: a rank's failure reaches its peers
// only as its departure. A high-bit fault in the value rank 0 stores at
// step 1 stays in rank 0, ranks 1 and 2 golden-equal, until step 3, where
// rank 0 traps out of bounds, rank 1 runs on to its own MPI_Abort and is
// primary, and rank 2 parks on a receive from rank 0 and is a casualty. A
// fault in rank 0's allreduce address makes it trap after the allreduce,
// before its vote at the cut: ranks 1 and 2, waiting there, are released,
// and deserted at step 2. Every rank's cycle count is exact, and the same
// from step 0, forked from the cut before the fault, and with ranks 1 and 2
// replaying golden traffic from the cuts after it, each run repeatedly.
func TestFailedRankLeavesInLogicalTime(t *testing.T) {
	c := newExitCase(t, buildFailureProg(6), 3)
	oob, abort, peer := vm.TrapOOB, vm.TrapAbort, vm.TrapPeerFailure
	for _, tc := range []struct {
		site   uint64 // past rank 0's sites at the first cut
		kinds  []vm.TrapKind
		cycles []uint64
	}{
		{1, []vm.TrapKind{oob, abort, peer}, []uint64{103, 68, 57}},
		{8, []vm.TrapKind{oob, peer, peer}, []uint64{57, 46, 42}},
	} {
		cfg := c.cfg
		cfg.Plan = inject.Plan{Faults: []inject.Fault{{Rank: 0, Site: c.snaps[0].Cut.Sites[0] + tc.site, Bit: 40}}}
		ghosts := cfg
		ghosts.Tail = Tail{Cuts: c.snaps[1:], Golden: &c.golden, Traffic: c.traffic}
		if !c.snaps[0].Usable(cfg.Plan) || !c.snaps[1].Cut.Past(cfg.Plan) {
			t.Fatalf("plan %v is not between the first two cuts", cfg.Plan.Faults)
		}
		want := Run(c.inst, cfg)
		for r, rr := range want.Ranks {
			if trapKind(rr.Err) != tc.kinds[r] || rr.Casualty != (tc.kinds[r] == peer) || rr.Cycles != tc.cycles[r] {
				t.Errorf("plan %v, rank %d: %v, casualty %v, %d cycles; want a %v trap at %d cycles",
					cfg.Plan.Faults, r, rr.Err, rr.Casualty, rr.Cycles, tc.kinds[r], tc.cycles[r])
			}
		}
		if trapKind(want.Err) != oob || want.Timeout {
			t.Errorf("plan %v: root cause %v (timeout %v), want rank 0's trap", cfg.Plan.Faults, want.Err, want.Timeout)
		}
		resumes := 0
		for i := 0; i < 20; i++ {
			for m, rc := range []RunConfig{cfg, cfg, ghosts, ghosts} {
				got := RunResumed(c.inst, rc, []*CampaignSnapshot{nil, c.snaps[0]}[m%2])
				if resumes += got.GhostResumes; !reflect.DeepEqual(viewOf(got), viewOf(want)) {
					t.Fatalf("plan %v, mode %d (forked %v, ghosts %v), run %d:\n got: %+v\nwant: %+v",
						cfg.Plan.Faults, m, m%2 == 1, m > 1, i, viewOf(got), viewOf(want))
				}
			}
		}
		if resumes == 0 {
			t.Errorf("plan %v: no rank ever replayed golden traffic and resumed", cfg.Plan.Faults)
		}
	}
}
