package vm

import "repro/internal/fpm"

// State is a reusable bundle of the stateful pieces of a VM: the address
// space, the contamination table, the register file and the frame stack. A
// campaign worker keeps one State per rank and threads it through
// consecutive experiments, so an experiment allocates none of them: a
// Memory backs only what its program stores to, a few KiB per rank for the
// applications here, and a fork restore copies its snapshot into the
// backing the State already holds.
//
// Deliberately NOT part of a State: the output vector, trace points and
// injection-cycle list, which escape into results and must stay owned by
// the run that produced them.
//
// Usage: pass via Config.State to New, then call Reclaim with the finished
// VM once every observation has been extracted. A State must not be shared
// by two live VMs.
type State struct {
	mem    *Memory
	table  *fpm.Table
	regs   []uint64
	frames []frame
	ret    []uint64
	// outHint remembers the previous run's output count so the next run's
	// escaping output vector is allocated once at the right size.
	outHint int
}

// NewState returns an empty State; the first VM that adopts it populates
// the buffers.
func NewState() *State { return &State{} }

// BackedBytes returns the address-space backing the State holds between
// runs (Memory.BackedBytes; zero before the first run).
func (st *State) BackedBytes() int64 {
	if st.mem == nil {
		return 0
	}
	return st.mem.BackedBytes()
}

// adopt installs st's buffers (reset) into v, allocating any the State does
// not hold yet. When forkRestore is set the memory and table skip their
// Reset: the caller restores a snapshot over them before the VM runs, which
// overwrites both.
func (st *State) adopt(v *VM, globalWords int64, forkRestore bool) {
	if st.mem == nil {
		st.mem = NewMemory(MemWords, globalWords)
	} else if !forkRestore {
		st.mem.Reset(MemWords, globalWords)
	}
	if st.table == nil {
		st.table = fpm.NewTable()
	} else if !forkRestore {
		st.table.Reset()
	}
	v.mem = st.mem
	v.table = st.table
	v.regs = st.regs[:0]
	v.frames = st.frames[:0]
	v.ret = st.ret[:0]
	v.outputs = make([]float64, 0, st.outHint)
}

// Reclaim recaptures v's buffers — which may have grown or been replaced
// during the run — so the next New(Config{State: st}) reuses them. Call
// only after the run has finished and all observations have been read; the
// VM must not be used afterwards.
func (st *State) Reclaim(v *VM) {
	st.mem = v.mem
	st.table = v.table
	st.regs = v.regs
	// Frames hold pointers into the program (fn, decoded code, retRegs);
	// drop them so a pooled State does not pin a retired program.
	clear(v.frames)
	st.frames = v.frames
	st.ret = v.ret
	st.outHint = len(v.outputs)
}
