package vm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/fpm"
)

// Snapshot-fork support (ZOFI-style): a campaign runs its golden execution
// once, captures the complete VM state at quiesce points, and starts each
// injection experiment by restoring the nearest snapshot that precedes the
// planned injection site instead of re-executing the clean prefix from
// step 0. The paper's determinism contract carries over unchanged because a
// restored VM is byte-identical — memory, contamination table, register
// file, frame stack, counters and trace-visible history — to a VM that
// re-executed the prefix.
//
// A quiesce point is a moment where the rank's execution state is a pure
// function of the program: immediately after a collective completes (all
// ranks of the job are at the same logical point, making a multi-rank cut
// consistent), and, for single-process jobs, additionally at timestep
// boundaries. The Quiesce hook fires at those points; Snapshot may only be
// called from inside the hook, and the captured frame stack resumes at the
// instruction after the quiescing intrinsic. GoldenEqual, called there
// too, compares a running VM with a snapshot of the golden run taken at the
// same point, which is what lets an experiment end early once it is back in
// the golden state.
//
// Not snapshotted (callers must not combine them with snapshot forking):
// the state of the two ablations that run on the observed code array, the
// naive-taint tracker and direct memory faults.

// QuiesceHook observes quiesce points. seq is the running quiesce-point
// index of this rank's execution (0-based); for a multi-rank job every rank
// observes the same seq sequence — the collective-round order — as long as
// execution is deterministic, which golden runs are. The hook runs on the
// rank's goroutine with the VM paused in a resumable state; it may call
// v.Snapshot or v.GoldenEqual and may block (snapshot capture parks every
// rank of a job to cut a consistent world state). Returning true ends the
// run there, as if the entry function had returned: the golden-equivalence
// early exit, whose caller takes the rest of the run from the golden run.
type QuiesceHook interface {
	Quiesce(v *VM, seq uint64) (stop bool)
}

// armQuiesce schedules the Quiesce hook to fire once the current intrinsic
// has fully retired (see the interpreter loop). Collective intrinsics arm
// it unconditionally — every rank of the job passes the same rendezvous
// round — while timestep boundaries arm it only for single-process runs.
func (v *VM) armQuiesce() {
	if v.cfg.Quiesce != nil {
		v.qarm = true
	}
}

// Snapshot is the complete resumable state of one VM at a quiesce point.
// Program-owned immutables (function bodies, pre-decoded code, return
// register lists) are shared, everything mutable is deeply copied: mutating
// the VM after capture — or mutating a VM restored from the snapshot —
// never writes through into the snapshot, so one snapshot can fork any
// number of experiments.
type Snapshot struct {
	mem        *MemSnap
	table      *fpm.TableSnap
	regs       []uint64
	frames     []frame
	cycles     uint64
	sites      uint64
	injCycles  []uint64
	outputs    []float64
	iterations int64
	ticks      int64
	qseq       uint64
	// clean records the interpreter mode at capture. A snapshot captured
	// in clean mode has stale shadow registers — semantically equal to
	// their primaries but not byte-equal — so a fork must resume in clean
	// mode (where nothing reads them) and reconstruct them on its own
	// clean->full switch, exactly as the captured VM would have.
	clean bool
}

// Sites returns the dynamic fim_inj site count at the snapshot: the first
// site index that has NOT yet executed. An experiment may fork from this
// snapshot iff every planned fault targets site >= Sites().
func (s *Snapshot) Sites() uint64 { return s.sites }

// Cycles returns the application cycle count at the snapshot.
func (s *Snapshot) Cycles() uint64 { return s.cycles }

// Snapshot captures the VM into s (reusing s's backing where possible; nil
// allocates). It must be called from inside a Quiesce hook, while an
// intrinsic is retiring: the stored frame stack resumes at the instruction
// following that intrinsic.
func (v *VM) Snapshot(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.mem = v.mem.Snapshot(s.mem)
	s.table = v.table.Snapshot(s.table)
	s.regs = append(s.regs[:0], v.regs...)
	// Frame structs copy by value; fn, code and retRegs are program-owned
	// immutables, safe to share across every fork of this snapshot.
	s.frames = append(s.frames[:0], v.frames...)
	s.frames[len(s.frames)-1].pc++
	s.cycles = v.cycles
	s.sites = v.sites
	s.injCycles = append(s.injCycles[:0], v.injCycles...)
	s.outputs = append(s.outputs[:0], v.outputs...)
	s.iterations = v.iterations
	s.ticks = v.ticks
	s.qseq = v.qseq
	s.clean = v.clean
	return s
}

// GoldenEqual reports whether this VM, paused in a Quiesce hook, is in
// exactly the state s captured at the same quiesce point of the fault-free
// run, so that everything the rank would still execute — given a message
// world equal to the golden one — is the golden run's tail. Cheap checks
// run first. A rank is golden-equal only if no planned fault is left, its
// table is empty, its counters and outputs so far equal the snapshot's, its
// frame stack is the same, every live primary register equals the
// snapshot's, each shadow equals its primary (unless the rank runs clean,
// where shadows are stale by design) and its memory equals the snapshot's
// word for word.
//
// Injection temporaries — registers at and above a function's PairedRegs —
// are not compared: a fim_inj group writes them immediately before their
// one consumer, so they are dead at every quiesce point, and the fused code
// arrays never write them at all. A function without pairing has no such
// split and is compared register for register.
func (v *VM) GoldenEqual(s *Snapshot) bool {
	if v.nextSite != NoSite || v.table.Len() != 0 || v.observing() ||
		v.cycles != s.cycles || v.sites != s.sites || v.iterations != s.iterations ||
		v.ticks != s.ticks || v.qseq != s.qseq ||
		len(v.outputs) != len(s.outputs) || len(v.frames) != len(s.frames) {
		return false
	}
	for i, o := range v.outputs {
		if math.Float64bits(o) != math.Float64bits(s.outputs[i]) {
			return false
		}
	}
	top := len(v.frames) - 1
	for i := range v.frames {
		f, g := &v.frames[i], &s.frames[i]
		pc := f.pc
		if i == top {
			pc++ // the snapshot resumes after the quiescing intrinsic
		}
		if f.fn != g.fn || pc != g.pc || f.regBase != g.regBase || f.frameBase != g.frameBase {
			return false
		}
		regs := v.regs[f.regBase : f.regBase+f.fn.NumRegs]
		gold := s.regs[g.regBase : g.regBase+f.fn.NumRegs]
		if f.fn.PairedRegs == 0 {
			if !slices.Equal(regs, gold) {
				return false
			}
			continue
		}
		for r := 0; r+1 < f.fn.PairedRegs; r += 2 {
			if regs[r] != gold[r] || (!v.clean && regs[r+1] != regs[r]) {
				return false
			}
		}
	}
	return v.mem.EqualSnap(s.mem)
}

// RestoreSnap forks this VM from the snapshot and reports the restore
// cost (memory stats plus table bytes). Call it on a freshly constructed
// VM (New, typically with a pooled State and Config.ForkRestore), before
// Resume. The VM must target the same program the snapshot was taken
// from and must not use the unsupported features listed in the package
// comment above.
func (v *VM) RestoreSnap(s *Snapshot) RestoreStats {
	if v.observing() {
		panic("vm: RestoreSnap with taint or memory faults")
	}
	stats := v.mem.RestoreSnap(s.mem)
	stats.Bytes += v.table.RestoreSnap(s.table)
	v.regs = append(v.regs[:0], s.regs...)
	v.frames = append(v.frames[:0], s.frames...)
	v.cycles = s.cycles
	v.sites = s.sites
	v.injCycles = append(v.injCycles[:0], s.injCycles...)
	// The output vector escapes into run results; appending into the
	// run-owned buffer (pre-sized by the State pool's hint) keeps it so.
	v.outputs = append(v.outputs[:0], s.outputs...)
	v.iterations = s.iterations
	v.ticks = s.ticks
	v.qseq = s.qseq
	// Adopt the capture-time interpreter mode (capped by this VM's own
	// eligibility — e.g. its injector may not be able to plan sites) and
	// normalize the restored frames' code arrays to it: the snapshot's
	// frames carry whichever array the captured VM was running. When a
	// clean-mode snapshot lands on a VM that cannot run clean, the
	// snapshot's stale shadow registers must be rebuilt before the full
	// interpreter reads them — toFullMode's reconstruction is exactly
	// that, because a clean capture's primaries are the pristine values.
	v.clean = s.clean
	if v.clean && !v.cleanOK {
		v.toFullMode()
		v.reframe = false
	} else {
		for i := range v.frames {
			v.frames[i].code = v.codeFor(v.frames[i].df)
		}
	}
	return stats
}

// Resume executes a VM forked via RestoreSnap to completion. Error
// semantics match Run.
func (v *VM) Resume() (err error) {
	if len(v.frames) == 0 {
		return fmt.Errorf("vm: Resume without a restored frame stack")
	}
	return v.execute()
}
