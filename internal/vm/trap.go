package vm

import "fmt"

// TrapKind enumerates the ways an execution can die. Any trap classifies
// the run as Crashed (paper §2): corrupted pointers dereferencing
// unallocated memory, division faults, application-initiated MPI aborts,
// exhausted cycle budgets (hangs), and failures propagated from peer ranks.
type TrapKind int

// Trap kinds.
const (
	TrapNone           TrapKind = iota
	TrapOOB                     // memory access outside the address space
	TrapNull                    // access to the null word (address 0)
	TrapDivZero                 // integer division or remainder by zero
	TrapDivOverflow             // INT64_MIN / -1
	TrapHeapExhausted           // heap met the stack
	TrapStackOverflow           // stack met the heap
	TrapCycleLimit              // cycle budget exceeded (hang)
	TrapAbort                   // application called MPI_Abort
	TrapPeerFailure             // an MPI call can never complete: a peer left, or the job deadlocked
	TrapInvalid                 // malformed instruction reached the interpreter
	TrapOutputOverflow          // output vector limit exceeded
)

var trapNames = map[TrapKind]string{
	TrapOOB: "out-of-bounds access", TrapNull: "null access",
	TrapDivZero: "integer division by zero", TrapDivOverflow: "integer division overflow",
	TrapHeapExhausted: "heap exhausted", TrapStackOverflow: "stack overflow",
	TrapCycleLimit: "cycle limit exceeded (hang)", TrapAbort: "MPI_Abort",
	TrapPeerFailure: "peer rank failure", TrapInvalid: "invalid instruction",
	TrapOutputOverflow: "output overflow",
}

// String returns a description of the trap kind.
func (k TrapKind) String() string {
	if s, ok := trapNames[k]; ok {
		return s
	}
	return "unknown trap"
}

// Trap is the error produced when execution dies.
type Trap struct {
	Kind   TrapKind
	Func   string
	PC     int
	Cycles uint64
	Detail string
}

// Error implements the error interface.
func (t *Trap) Error() string {
	s := fmt.Sprintf("vm: trap %v in %s@%d after %d cycles", t.Kind, t.Func, t.PC, t.Cycles)
	if t.Detail != "" {
		s += ": " + t.Detail
	}
	return s
}

// AsTrap extracts a *Trap from an error, or nil.
func AsTrap(err error) *Trap {
	if t, ok := err.(*Trap); ok {
		return t
	}
	return nil
}
