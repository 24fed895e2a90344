// Package classify implements the paper's outcome taxonomy (§2):
//
//	Vanished (V)             masked before reaching memory; output correct
//	Output Not Affected (ONA) memory contaminated, output still correct
//	Wrong Output (WO)        output corrupted or application-reported failure
//	Prolonged EXecution (PEX) output correct but extra work was needed
//	Crashed (C)              traps, MPI_Abort, hangs
//
// CO (Correct Output) = V + ONA: the classes a "black-box" output-variation
// analysis cannot distinguish (§4.3).
package classify

import "math"

// Outcome is one experiment's class.
type Outcome int

// Outcome classes.
const (
	Vanished Outcome = iota
	OutputNotAffected
	WrongOutput
	ProlongedExecution
	Crashed
	numOutcomes
)

// NumOutcomes is the number of outcome classes.
const NumOutcomes = int(numOutcomes)

var outcomeNames = [NumOutcomes]string{"V", "ONA", "WO", "PEX", "C"}

// String returns the paper's abbreviation for the class.
func (o Outcome) String() string {
	if o >= 0 && int(o) < NumOutcomes {
		return outcomeNames[o]
	}
	return "?"
}

// IsCorrectOutput reports whether the class counts toward CO (V + ONA).
func (o Outcome) IsCorrectOutput() bool {
	return o == Vanished || o == OutputNotAffected
}

// Golden captures the fault-free reference execution of one application
// configuration.
type Golden struct {
	Outputs    []float64
	Cycles     uint64
	Iterations int64
}

// RunResult captures one fault-injection experiment.
type RunResult struct {
	// Err is non-nil when any rank trapped (including aborts and hangs).
	Err error
	// Outputs is the concatenated observable output of all ranks.
	Outputs []float64
	// Cycles is the maximum application cycles over ranks.
	Cycles uint64
	// Iterations is the solver iteration count reported by the program.
	Iterations int64
	// EverContaminated reports whether any rank's memory state was ever
	// contaminated.
	EverContaminated bool
}

// Criteria parameterizes classification.
type Criteria struct {
	// Tolerance is the relative output tolerance; the paper uses 5%.
	Tolerance float64
	// AbsFloor guards relative comparison of near-zero outputs.
	AbsFloor float64
	// ProlongFactor: a run whose cycle count exceeds golden cycles by this
	// factor (while producing correct output) is PEX.
	ProlongFactor float64
}

// DefaultCriteria matches the paper: 5% output tolerance.
func DefaultCriteria() Criteria {
	return Criteria{Tolerance: 0.05, AbsFloor: 1e-12, ProlongFactor: 1.02}
}

// OutputsMatch reports whether got matches want within the criteria.
func (c Criteria) OutputsMatch(want, got []float64) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		w, g := want[i], got[i]
		if math.IsNaN(g) != math.IsNaN(w) {
			return false
		}
		if math.IsNaN(w) {
			continue
		}
		den := math.Abs(w)
		if den < c.AbsFloor {
			den = c.AbsFloor
		}
		if math.Abs(g-w)/den > c.Tolerance {
			return false
		}
	}
	return true
}

// Classify assigns the outcome class of one experiment.
func (c Criteria) Classify(golden Golden, run RunResult) Outcome {
	if run.Err != nil {
		return Crashed
	}
	correct := c.OutputsMatch(golden.Outputs, run.Outputs)
	prolonged := run.Iterations > golden.Iterations ||
		float64(run.Cycles) > float64(golden.Cycles)*c.ProlongFactor
	switch {
	case correct && !prolonged:
		if run.EverContaminated {
			return OutputNotAffected
		}
		return Vanished
	case correct && prolonged:
		return ProlongedExecution
	default:
		return WrongOutput
	}
}

// Tally accumulates outcome counts over a campaign.
type Tally struct {
	Counts [NumOutcomes]int
	Total  int
}

// Add records one outcome.
func (t *Tally) Add(o Outcome) {
	t.Counts[o]++
	t.Total++
}

// Merge folds another tally's counts into t. Integer sums, so merging is
// commutative and associative.
func (t *Tally) Merge(other Tally) {
	for o := range t.Counts {
		t.Counts[o] += other.Counts[o]
	}
	t.Total += other.Total
}

// Percent returns the percentage of runs in the class.
func (t *Tally) Percent(o Outcome) float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Counts[o]) / float64(t.Total)
}

// PercentCO returns the Correct Output percentage (V + ONA), the quantity a
// black-box analysis reports.
func (t *Tally) PercentCO() float64 {
	return t.Percent(Vanished) + t.Percent(OutputNotAffected)
}
