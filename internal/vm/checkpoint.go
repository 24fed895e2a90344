package vm

// In-VM checkpoint/rollback makes the paper's recovery story executable:
// the VM snapshots its complete execution state at timestep boundaries
// (IntrinCheckpointT), and — playing the role of a fault detector with a
// one-timestep granularity — rolls back to the previous snapshot when the
// contamination table exceeds a threshold. Because the injector's dynamic
// site pointer is deliberately NOT restored, the re-executed region runs
// fault-free, which is exactly the transient-fault semantics the paper's
// rollback targets: the redone work costs cycles (a PEX-shaped signature)
// but the corrupted state is gone.
//
// The detector here is an oracle (it reads the contamination table, which
// a production system does not have); the paper's §5 models exist
// precisely to estimate this quantity from FPS instead.
//
// A checkpoint is an ordinary vm.Snapshot (snapshot.go) and a rollback is
// its restore body: the cost of both scales with the memory the run
// touched, and a rolled-back VM resumes in the interpreter mode the
// checkpoint was taken in.
//
// Limitations: checkpointing is per-process — rolling back one rank of an
// MPI job would break message lockstep, so this facility is intended for
// single-process runs (coordinated distributed checkpointing is out of
// scope). The naive-taint ablation state is not snapshotted.

// Rollbacks reports how many checkpoint restorations happened.
func (v *VM) Rollbacks() int { return v.rollbacks }

// rollback rewinds the VM to the last checkpoint. Application cycles are
// NOT rewound: re-executed work costs time, exactly as a real rollback
// does. The injector's site counter and injection history are not rewound
// either, so a transient fault does not re-fire during replay.
func (v *VM) rollback() {
	cycles, sites, injCycles := v.cycles, v.sites, v.injCycles
	// The contamination happened even though it is being undone: keep the
	// historical peak and ever-contaminated flags.
	peak, ever := v.table.Peak(), v.table.Ever()
	v.injCycles = nil // detach: restore refills the slice it finds in place
	v.restore(v.snap)
	v.cycles, v.sites, v.injCycles = cycles, sites, injCycles
	v.table.CarryHistory(peak, ever)
	v.rollbacks++
	v.restored = true
	if v.cfg.Tracer != nil {
		v.cfg.Tracer.OnCMLChange(v.cycles, v.table.Len())
	}
}

// checkpointTick runs the rollback policy and checkpointing at a timestep
// boundary. Returns true when execution state was replaced and the
// interpreter must refetch its frame.
func (v *VM) checkpointTick() bool {
	if v.cfg.CheckpointEvery <= 0 {
		return false
	}
	if v.cfg.RollbackCML > 0 && v.snap != nil && v.table.Len() >= v.cfg.RollbackCML {
		v.rollback()
		return true
	}
	if v.ticks%v.cfg.CheckpointEvery == 0 {
		v.snap = v.Snapshot(v.snap)
	}
	return false
}
