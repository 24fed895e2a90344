package vm

import (
	"sync/atomic"

	"repro/internal/ir"
)

// Injector decides, at each dynamic fim_inj execution, whether to corrupt
// the operand value. site is the running dynamic site index (0-based) within
// this process's execution; the returned bool reports whether a flip was
// applied. Implementations live in package inject; a nil Injector leaves all
// values untouched (golden and profiling runs).
type Injector interface {
	OnSite(site uint64, val uint64) (uint64, bool)
}

// SitePlanner is an optional Injector extension: an injector whose flips
// are planned in advance can reveal the next dynamic site it will act on,
// letting the VM pass through every earlier fim_inj without an interface
// call — and letting the clean-mode interpreter run until the very
// instruction that corrupts state. NextSite returns NoSite when no planned
// fault remains. The value must be refreshed after every OnSite call that
// was allowed through.
type SitePlanner interface {
	Injector
	NextSite() uint64
}

// NoSite is SitePlanner's "no remaining faults" sentinel.
const NoSite = ^uint64(0)

// SiteRun is one run of a fault-free execution's dyn→static site map
// (Config.SiteRuns): dynamic sites Site … Site+N-1 execute the fim_injs of
// static ordinals Static … Static+N-1, the transform's global index into
// its transform.SiteInfo table, where a site's injection class is too. A
// rank's runs are in site order and cover every site it executed.
type SiteRun struct {
	Site   uint64
	Static int32
	N      uint32
}

// MPIEndpoint is the VM's view of the message-passing runtime. Messages are
// encoded with fpm.EncodeMessage so contamination headers travel with the
// payload exactly as in the paper's Fig. 4. Collectives carry primary and
// pristine values side by side, since the pristine reduction result must be
// computed from pristine contributions.
type MPIEndpoint interface {
	Rank() int
	Size() int
	Send(dst, tag int, msg []byte) error
	Recv(src, tag int) ([]byte, error)
	// Allreduce combines primary and pristine word vectors across ranks.
	// isFloat selects IEEE-754 interpretation of the words.
	Allreduce(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error)
	Barrier() error
	// Bcast distributes root's message to every rank. Non-root ranks pass
	// a nil msg and receive root's; root receives its own back.
	Bcast(root int, msg []byte) ([]byte, error)
	Abort(code int64)
}

// WireBufs is an optional extension of MPIEndpoint: a transport that
// recycles wire buffers. The VM draws send buffers from GetBuf and returns
// point-to-point receive buffers through PutBuf once fully decoded, so
// steady-state message traffic allocates nothing. Broadcast buffers are
// never returned — they are shared by every rank.
type WireBufs interface {
	// GetBuf returns a recycled buffer to encode into, or nil.
	GetBuf() []byte
	// PutBuf hands back a buffer this VM was the sole consumer of.
	PutBuf([]byte)
}

// Tracer observes propagation-relevant events. Implementations live in
// package trace; a nil Tracer disables observation.
type Tracer interface {
	// OnCMLChange fires whenever the contamination table size changes.
	OnCMLChange(localCycles uint64, cml int)
	// OnTick fires at application timestep boundaries (IntrinCheckpointT).
	OnTick(localCycles uint64, tick int64)
}

// AbortFlag is a job-wide flag raised when any rank crashes or aborts, so
// sibling ranks stop instead of hanging.
type AbortFlag struct {
	f atomic.Bool
}

// Raise sets the flag.
func (a *AbortFlag) Raise() { a.f.Store(true) }

// Lower clears the flag, for reuse of a job's infrastructure between runs.
// Only call while no VM is observing the flag.
func (a *AbortFlag) Lower() { a.f.Store(false) }

// Raised reports whether the flag is set.
func (a *AbortFlag) Raised() bool { return a.f.Load() }
