package vm

import "sync/atomic"

// Clean-mode interpreter. The dual-chain instrumentation (package
// transform) makes every run pay for its own verifiability: each
// value-producing instruction executes twice and every store consults the
// contamination table — even though the overwhelming majority of executed
// instructions belong to phases where the rank is provably fault-free (the
// golden run, the prefix before an injection fires, and the long tail after
// a fault's contamination has been overwritten). Clean mode exploits a
// structural invariant of the instrumentation to skip all of that work
// without changing a single observable byte:
//
//   - The secondary chain is register-only. Stores bridge the chains
//     through fpm_store and loads through fpm_fetch; no FlagSecondary
//     instruction ever writes memory. So while the contamination table is
//     empty and every shadow register equals its primary twin, every
//     FlagSecondary instruction and every fpm_fetch merely recomputes a
//     value equal to the one the primary chain already holds, and
//     fpm_store(v, v, a, a) is exactly Store v -> a (Observe of equal
//     values records nothing). Skipping them is invisible: cycle
//     accounting (they cost 0; fpm_store and its Store replacement both
//     cost 1), injection-site numbering (fim_inj still executes), outputs,
//     MPI traffic and trace events are all bit-for-bit unchanged.
//
//   - The pairing is static: transform maps original register r to primary
//     2r and shadow 2r+1 and records the paired extent in ir.Func. So the
//     moment the fault-free assumption is about to break, the shadow file
//     is reconstructible in one pass — copy each even register over its
//     odd twin in every live frame — precisely because the primaries ARE
//     the pristine values up to that instant.
//
// Mode transitions:
//
//   clean -> full: just BEFORE the injector may corrupt a value (the
//     fim_inj fast path falls through when the dynamic site reaches the
//     injector's announced NextSite), and just AFTER incoming MPI data
//     installs contamination records from a diverged peer (checked when an
//     intrinsic retires). Both reconstruct shadows from primaries first.
//
//   full -> clean: when the rank is again provably fault-free — the table
//     is empty AND a scan confirms every shadow register equals its
//     primary. Checked where the condition can become true: when an
//     fpm_store empties the table, and at timestep boundaries (which also
//     catch register-only divergence that dies without ever touching
//     memory). The scan is exact, so switching back is always sound.
//
// While in clean mode the shadow registers go stale (skipped instructions
// would have refreshed them). That staleness is invisible by construction:
// nothing reads a shadow register except skipped instructions, substituted
// fpm_stores, and call/ret argument shuffling — which only moves stale
// values into other stale slots that the reconstruction pass overwrites
// wholesale. Snapshots taken in clean mode record the mode (vm.Snapshot),
// so forks resume clean and reconstruct exactly as the parent would have.
//
// Clean mode is per-VM (per rank) and needs no cross-rank coordination: a
// rank's table can only become non-empty through its own injector or
// through message records, both of which are local switch triggers.

// cleanSwitches counts clean->full transitions process-wide. Both switch
// paths are cold (they bracket injection and contamination episodes), so
// the atomic costs nothing measurable; differential tests read it to prove
// a campaign actually exercised both interpreters.
var cleanSwitches atomic.Uint64

// CleanModeSwitches returns the process-wide count of clean->full
// interpreter transitions.
func CleanModeSwitches() uint64 { return cleanSwitches.Load() }

// fusedReplays counts, process-wide and like cleanSwitches on a cold path,
// the full-mode fused groups that ran their fim_injs one by one because a
// planned fault fell inside them.
var fusedReplays atomic.Uint64

// FusedReplays returns the process-wide count of full-mode fused fim_inj
// groups replayed from the 1:1 code.
func FusedReplays() uint64 { return fusedReplays.Load() }

// toFullMode leaves clean mode: reconstructs every live frame's shadow
// registers from their (still pristine) primaries and swaps all frames to
// the full code array. Sets reframe so loop call-outs refetch their cached
// code slice; paths that refetch anyway must clear it.
func (v *VM) toFullMode() {
	cleanSwitches.Add(1)
	v.clean = false
	v.reframe = true
	for i := range v.frames {
		fr := &v.frames[i]
		fr.code = v.codeFor(fr.df)
		regs := v.regs[fr.regBase:]
		for r := 0; r+1 < fr.fn.PairedRegs; r += 2 {
			regs[r+1] = regs[r]
		}
	}
}

// tryCleanMode re-enters clean mode if the rank is provably fault-free:
// empty contamination table and every shadow register equal to its primary
// twin in every live frame. Cheap relative to its call sites (table-empty
// transitions and timestep boundaries).
func (v *VM) tryCleanMode() {
	if v.clean || !v.cleanOK || v.table.Len() != 0 {
		return
	}
	for i := range v.frames {
		fr := &v.frames[i]
		regs := v.regs[fr.regBase:]
		for r := 0; r+1 < fr.fn.PairedRegs; r += 2 {
			if regs[r+1] != regs[r] {
				return
			}
		}
	}
	v.clean = true
	v.reframe = true
	for i := range v.frames {
		v.frames[i].code = v.frames[i].df.clean
	}
}
