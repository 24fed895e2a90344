package core

import "sync/atomic"

// Golden-equivalence early exit. After a masked or fully cleansed fault
// (the paper's V and ONA outcomes, §4.3) a run can come back to exactly
// the golden state, and from then on nothing separates it from the golden
// run: executing the tail only re-derives the golden run's final values.
// Snapshot-fork skips the clean prefix of an experiment; the early exit
// skips such a tail.
//
// A run carries the captured cuts later than its fork point and its last
// planned fault (RunConfig.Tail). At each, every rank votes whether its
// state equals the golden snapshot (vm.VM.GoldenEqual), and when every rank
// does and the message-passing world equals the golden capture too
// (mpi.Job.WorldEqual) the run stops there on every rank and takes the
// golden run's final values instead of executing the rest. The vote is the
// capture run's park protocol (cutVote, snapshot.go). It needs every rank,
// so a run in which a rank has crashed never exits, and its verdict is a
// function of the ranks' states at the cut alone, so exits are
// deterministic. The comparison is exact, so an exited run's outcome is
// the one full execution would have produced, byte for byte.

// Tail is what lets a run end at a golden-equal cut: captured snapshots of
// the golden run, in seq order, each later than the run's fork point and
// than every planned fault, and the golden run's outcome, whose per-rank
// final values an ended run takes. Traffic, the capture run's MPI traffic,
// also lets a single golden-equal rank replay it instead of executing
// (ghost.go); nil keeps that to whole-run exits. It is data about the
// golden run, not a setting: the zero Tail (no cuts) executes every run to
// its end, and results are the same either way.
type Tail struct {
	Cuts    []*CampaignSnapshot
	Golden  *RunOutcome
	Traffic Traffic
}

// goldenExits counts runs ended at a golden-equal cut, process-wide. The
// increment is on the cold path (once per exit), like vm's mode-switch
// counters; differential tests read it to prove exits happened.
var goldenExits atomic.Uint64

// GoldenExits returns the process-wide count of runs that ended at a
// golden-equal cut.
func GoldenExits() uint64 { return goldenExits.Load() }

// spliceGolden gives rank r's result, which stopped at a golden-equal cut,
// the golden run's final values and returns the cycles it did not execute.
// Everything else the result holds — contamination peak, first
// contamination, injection cycles, the trace so far — is already final: the
// table stays empty over the golden tail.
func spliceGolden(rr *RankResult, golden *RankResult) uint64 {
	skipped := golden.Cycles - rr.Cycles
	rr.Outputs = golden.Outputs
	rr.Cycles = golden.Cycles
	rr.Sites = golden.Sites
	rr.Iterations = golden.Iterations
	rr.AllocatedWords = golden.AllocatedWords
	return skipped
}
