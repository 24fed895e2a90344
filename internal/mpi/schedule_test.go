package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
)

// An independent oracle for the job's liveness verdicts. A schedule is what
// each rank does, in order; reference executes it sequentially, with no
// goroutines, channels, counters or wait table, and says how each rank must
// end. The real Job, run on goroutines under an adversarial scheduler, must
// end every rank the same way on every schedule: with one mechanism for
// departures, finished and failed alike, nothing is left to the scheduler.

type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opBarrier
	opAllreduce
	opBcast
	// opFail is a rank failing on its own (a trap, an MPI_Abort): it stops
	// there and leaves the job.
	opFail
)

// op is one MPI call of a schedule. peer is a Send's destination, a Recv's
// source, a Bcast's root; words is an Allreduce's vector length (ranks that
// disagree on it fail the round).
type op struct {
	kind  opKind
	peer  int
	tag   int
	words int
}

// schedule[r] is rank r's program; a rank that reaches its end leaves.
type schedule [][]op

func (o op) String() string {
	switch o.kind {
	case opSend:
		return fmt.Sprintf("send(%d,t%d)", o.peer, o.tag)
	case opRecv:
		return fmt.Sprintf("recv(%d,t%d)", o.peer, o.tag)
	case opAllreduce:
		return fmt.Sprintf("allreduce(%d)", o.words)
	case opBcast:
		return fmt.Sprintf("bcast(%d)", o.peer)
	case opFail:
		return "fail"
	}
	return "barrier"
}

// String prints the schedule with runs of one op folded, so that a burst of
// a thousand sends stays readable in a failure.
func (s schedule) String() string {
	var b strings.Builder
	for r, p := range s {
		fmt.Fprintf(&b, "\n  rank %d:", r)
		for i := 0; i < len(p); {
			n := 1
			for i+n < len(p) && p[i+n] == p[i] {
				n++
			}
			fmt.Fprintf(&b, " %v", p[i])
			if n > 1 {
				fmt.Fprintf(&b, "x%d", n)
			}
			i += n
		}
	}
	return b.String()
}

// How a rank ends.
const (
	endFinished = "finished"
	endFailed   = "failed"
	endDeserted = "deserted"
	endMismatch = "mismatch"
	endDeadlock = "deadlock"
)

// expectation is the reference's verdict on a schedule.
type expectation struct {
	// ends[r] is how rank r ends.
	ends []string
	// waits[r] words a deadlocked rank's wait as ErrDeadlock does.
	waits []string
}

// reference executes s to its fixed point: every rank runs as far as it
// can, a rank that fails stops there and leaves like a finished one, and
// the rounds repeat until nothing moves; a rank still running then waits
// for ever, and the job is deadlocked. Messages, mailbox capacity, tag
// matching, collective rounds and departures follow the package's
// documented semantics; the result does not depend on the order ranks are
// visited in, because every wait is monotone: once it can end, it always can.
func reference(s schedule, mailCap int) expectation {
	n := len(s)
	pc := make([]int, n)
	queue := make([][][]int, n)   // queue[dst][src]: tags in the mailbox
	pending := make([][][]int, n) // pending[dst][src]: tags set aside
	for r := range queue {
		queue[r], pending[r] = make([][]int, n), make([][]int, n)
	}
	var arrived []int // ranks in the current collective round
	exp := expectation{ends: make([]string, n), waits: make([]string, n)}
	gone := func(r int) bool { return exp.ends[r] != "" }
	for moved := true; moved; {
		moved = false
		for r := 0; r < n; r++ {
			for !gone(r) {
				if pc[r] == len(s[r]) {
					exp.ends[r], moved = endFinished, true
					break
				}
				o := s[r][pc[r]]
				done := false
				switch o.kind {
				case opFail:
					exp.ends[r], moved = endFailed, true
				case opSend:
					q := &queue[o.peer][r]
					if len(*q) < mailCap {
						*q, done = append(*q, o.tag), true
					} else if gone(o.peer) {
						exp.ends[r], moved = endDeserted, true
					}
					exp.waits[r] = fmt.Sprintf("send to %d tag %d, mailbox full", o.peer, o.tag)
				case opRecv:
					p, q := &pending[r][o.peer], &queue[r][o.peer]
					if i := slices.Index(*p, o.tag); i >= 0 {
						*p, done = slices.Delete(*p, i, i+1), true
					}
					// A receive takes everything queued, setting aside what
					// does not match, until its tag shows up.
					for !done && len(*q) > 0 {
						if (*q)[0] == o.tag {
							done = true
						} else {
							*p = append(*p, (*q)[0])
						}
						*q, moved = (*q)[1:], true
					}
					if !done && gone(o.peer) {
						exp.ends[r], moved = endDeserted, true
					}
					exp.waits[r] = fmt.Sprintf("recv from %d tag %d", o.peer, o.tag)
				default:
					if !slices.Contains(arrived, r) {
						arrived, moved = append(arrived, r), true
					}
					if len(arrived) == n {
						// Complete: everyone in it fails or advances together.
						bad, roots := false, 0
						for x := range s {
							ox := s[x][pc[x]]
							if ox.kind != o.kind || o.kind == opAllreduce && ox.words != o.words {
								bad = true
							}
							if ox.kind == opBcast && ox.peer == x {
								roots++
							}
						}
						bad = bad || o.kind == opBcast && roots != 1
						for x := range s {
							if bad {
								exp.ends[x] = endMismatch
							} else if x != r {
								pc[x]++
							}
						}
						arrived, done = nil, !bad
						break
					}
					// A round that a departed rank is absent from never fills.
					for x := range s {
						if gone(x) && !slices.Contains(arrived, x) {
							exp.ends[r], moved = endDeserted, true
						}
					}
					exp.waits[r] = fmt.Sprintf("%v %d/%d arrived", collKind(o.kind-opBarrier), len(arrived), n)
				}
				if !done {
					break
				}
				pc[r]++
				moved = true
			}
		}
	}
	for r, e := range exp.ends {
		if e == "" {
			exp.ends[r] = endDeadlock
		}
	}
	return exp
}

// errFailed is what a rank returns at its opFail.
var errFailed = errors.New("rank failed")

// perform executes one op on the real endpoint.
func perform(e *Endpoint, o op) error {
	switch o.kind {
	case opFail:
		return errFailed
	case opSend:
		return e.Send(o.peer, o.tag, nil)
	case opRecv:
		_, err := e.Recv(o.peer, o.tag)
		return err
	case opBarrier:
		return e.Barrier()
	case opAllreduce:
		v := make([]uint64, o.words)
		_, _, err := e.Allreduce(v, v, ir.ReduceSum, false)
		return err
	default:
		var msg []byte
		if e.Rank() == o.peer {
			msg = []byte{1}
		}
		_, err := e.Bcast(o.peer, msg)
		return err
	}
}

// runSchedule executes s on j the way core runs a job: one goroutine per
// rank, each leaving the job however it returns — at its end, at its first
// failed call, or at its opFail.
func runSchedule(j *Job, s schedule) []error {
	return runRanks(j, func(e *Endpoint) error {
		defer j.Leave(e.Rank())
		for _, o := range s[e.Rank()] {
			if err := perform(e, o); err != nil {
				return err
			}
		}
		return nil
	})
}

// endOf names how a rank that returned err ended.
func endOf(err error) string {
	switch {
	case err == nil:
		return endFinished
	case errors.Is(err, errFailed):
		return endFailed
	case errors.Is(err, ErrDeserted):
		return endDeserted
	case errors.Is(err, ErrDeadlock):
		return endDeadlock
	case errors.Is(err, ErrTimeout):
		return "timeout"
	}
	return endMismatch
}

// checkSchedule runs s on j and requires every rank to end as the reference
// says. It returns the ends the ranks met, for the callers' tallies: the
// distinct ones other than finished, comma-separated, or "completes" when
// every rank finished.
func checkSchedule(t *testing.T, j *Job, s schedule) string {
	t.Helper()
	exp := reference(s, mailboxCap)
	errs := runSchedule(j, s)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s\nschedule: %v\nerrors: %q\nreference: %q", fmt.Sprintf(format, args...), s, errs, exp.ends)
	}
	var ends []string
	var text string
	for r, err := range errs {
		if got := endOf(err); got != exp.ends[r] {
			fail("rank %d ends %s, the reference says %s", r, got, exp.ends[r])
		}
		switch e := exp.ends[r]; {
		case e == endDeadlock && text == "":
			text = err.Error()
		case e == endDeadlock && err.Error() != text:
			// Every deadlocked rank reports the same verdict.
			fail("ranks report the deadlock in different words")
		}
		if e := exp.ends[r]; e != endFinished && !slices.Contains(ends, e) {
			ends = append(ends, e)
		}
	}
	for r, e := range exp.ends {
		// The verdict names each deadlocked rank's wait.
		if e == endDeadlock && !strings.Contains(text, ": "+exp.waits[r]) {
			fail("rank %d waits on %q, which the deadlock error does not say", r, exp.waits[r])
		}
	}
	if j.Deadlocked() != (text != "") || j.TimedOut() {
		fail("Deadlocked=%v TimedOut=%v", j.Deadlocked(), j.TimedOut())
	}
	if len(ends) == 0 {
		return "completes"
	}
	slices.Sort(ends)
	return strings.Join(ends, ",")
}

// genSchedule draws a schedule the way faults produce them: a consistent
// SPMD program — matched sends and receives, collectives entered by all
// ranks, now and then a burst larger than a mailbox — damaged by a few
// mutations (see mutate). mut yields the mutations' raw bytes.
func genSchedule(rng *rand.Rand, mut []byte) schedule {
	n := 2 + rng.Intn(4)
	s := make(schedule, n)
	bursts := rng.Intn(5) == 0
	for ev := 3 + rng.Intn(10); ev > 0; ev-- {
		switch k := rng.Intn(10); {
		case k == 0 && bursts:
			// More messages than the mailbox holds, so the sender parks on a
			// full mailbox unless the receiver keeps up.
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			cnt, tag := mailboxCap+1+rng.Intn(8), rng.Intn(3)
			for i := 0; i < cnt; i++ {
				s[src] = append(s[src], op{kind: opSend, peer: dst, tag: tag})
				s[dst] = append(s[dst], op{kind: opRecv, peer: src, tag: tag})
			}
		case k < 6:
			src, dst, tag := rng.Intn(n), rng.Intn(n), rng.Intn(3)
			s[src] = append(s[src], op{kind: opSend, peer: dst, tag: tag})
			s[dst] = append(s[dst], op{kind: opRecv, peer: src, tag: tag})
		default:
			o := op{kind: opBarrier + opKind(rng.Intn(3)), peer: rng.Intn(n), words: 1}
			for r := range s {
				s[r] = append(s[r], o)
			}
		}
	}
	for ; len(mut) >= 4; mut = mut[4:] {
		mutate(s, mut[0], int(mut[1]), int(mut[2]), int(mut[3]))
	}
	return s
}

// mutate damages one rank's program the way a flipped trip count, index or
// branch does: an op dropped, repeated, retargeted or moved, the program
// cut short, or the rank failing on its own there.
func mutate(s schedule, kind byte, rank, idx, val int) {
	rank %= len(s)
	p := s[rank]
	if len(p) == 0 {
		return
	}
	idx %= len(p)
	switch kind % 7 {
	case 0:
		s[rank] = slices.Delete(p, idx, idx+1)
	case 1:
		s[rank] = slices.Insert(p, idx, p[idx])
	case 2:
		s[rank] = p[:idx]
	case 3:
		if idx+1 < len(p) {
			p[idx], p[idx+1] = p[idx+1], p[idx]
		}
	case 4:
		if p[idx].kind <= opRecv {
			p[idx].peer, p[idx].tag = val%len(s), val/len(s)%3
		} else {
			p[idx].kind, p[idx].peer = opBarrier+opKind(val%3), val/3%len(s)
		}
	case 5:
		p[idx].words = 1 + val%2
	case 6:
		s[rank] = slices.Insert(p, idx, op{kind: opFail})
	}
}

// scheduleFromSeed is genSchedule with the mutations drawn from the seed
// too: none to three of them.
func scheduleFromSeed(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	mut := make([]byte, 4*rng.Intn(4))
	rng.Read(mut)
	return genSchedule(rng, mut)
}

// jobPool hands out one recycled job per size, as a campaign worker does, so
// that every schedule also checks that Recycle leaves no wait, verdict or
// counter of the previous run behind. The jobs' yield hook turns one liveness
// window in `every` into a scheduling point, and every changes from schedule
// to schedule, because each density finds different interleavings: a rank
// that yields in every window never runs far ahead of a peer that was handed
// its message, one that never yields always does.
type jobPool struct {
	jobs     map[int]*Job
	gets     int
	every, n atomic.Uint32
}

func (p *jobPool) get(size int) *Job {
	p.every.Store([...]uint32{0, 2, 17}[p.gets%3])
	p.gets++
	// A schedule that takes farTimeout has missed a verdict, and fails for it.
	if j := p.jobs[size]; j != nil && j.Recycle(size, farTimeout) {
		return j
	}
	j := NewJob(size, farTimeout)
	j.yield = func() {
		if every := p.every.Load(); every != 0 && p.n.Add(1)%every == 0 {
			runtime.Gosched()
		}
	}
	if p.jobs == nil {
		p.jobs = make(map[int]*Job)
	}
	p.jobs[size] = j
	return j
}

// TestSchedulesMatchReference is the no-false-positive, no-false-negative
// stress: a few thousand seeded schedules at GOMAXPROCS 1, 2 and 8, each
// rank of each ending on the real job exactly as the sequential reference
// says.
func TestSchedulesMatchReference(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 300
	}
	var pool jobPool
	tally := map[string]int{}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < seeds && !t.Failed(); i++ {
			s := scheduleFromSeed(int64(procs*1_000_000 + i))
			for _, e := range strings.Split(checkSchedule(t, pool.get(len(s)), s), ",") {
				tally[e]++
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	t.Logf("ends met: %v", tally)
	for _, v := range []string{"completes", endDeadlock, endDeserted, endMismatch, endFailed} {
		if !t.Failed() && tally[v] < seeds/20 {
			t.Errorf("only %d schedules end as %q: the generator no longer covers that verdict", tally[v], v)
		}
	}
}

// TestFullMailboxCycles targets the windows of rule 1 with mailboxes that
// fill: a receiver that drains a full mailbox faster than the parked sender
// counts its sends (the signed compare), a cycle of ranks all parked on full
// mailboxes (a deadlock of sends), and the same cycle broken by one rank
// that receives first.
func TestFullMailboxCycles(t *testing.T) {
	var pool jobPool
	burst := func(s schedule, src, dst, cnt int) {
		for i := 0; i < cnt; i++ {
			s[src] = append(s[src], op{kind: opSend, peer: dst})
		}
	}
	drain := func(s schedule, dst, src, cnt int) {
		for i := 0; i < cnt; i++ {
			s[dst] = append(s[dst], op{kind: opRecv, peer: src})
		}
	}
	// check runs s once at each yield density of the pool.
	check := func(name string, s schedule, want string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if got := checkSchedule(t, pool.get(len(s)), s); got != want {
				t.Errorf("%d-rank %s: %s, want %s", len(s), name, got, want)
			}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for n := 2; n <= 4; n++ {
			over := mailboxCap + 1 + n
			// Every rank sends a burst to its right neighbour, then drains
			// its left neighbour's: a cycle of full mailboxes.
			cycle := make(schedule, n)
			for r := 0; r < n; r++ {
				burst(cycle, r, (r+1)%n, over)
			}
			for r := 0; r < n; r++ {
				drain(cycle, r, (r+n-1)%n, over)
			}
			check("cycle of full mailboxes", cycle, "deadlock")
			// Rank 0 drains first: the cycle unwinds.
			broken := make(schedule, n)
			drain(broken, 0, n-1, over)
			for r := 0; r < n; r++ {
				burst(broken, r, (r+1)%n, over)
			}
			for r := 1; r < n; r++ {
				drain(broken, r, r-1, over)
			}
			check("broken cycle", broken, "completes")
			// A stream several mailboxes long, of which the receiver expects
			// one message more than was sent, before a barrier of all ranks.
			stream := make(schedule, n)
			burst(stream, 0, 1, 3*mailboxCap)
			drain(stream, 1, 0, 3*mailboxCap+1)
			for r := range stream {
				stream[r] = append(stream[r], op{kind: opBarrier})
			}
			check("stream", stream, "deadlock")
		}
		runtime.GOMAXPROCS(prev)
	}
}

// FuzzSchedule lets the fuzzer choose the base program (seed), the damage
// done to it (mut, four bytes per mutation) and the parallelism.
func FuzzSchedule(f *testing.F) {
	f.Add(int64(1), []byte{}, uint8(1))
	f.Add(int64(2), []byte{0, 1, 2, 3}, uint8(2))
	f.Add(int64(3), []byte{2, 0, 1, 0, 4, 1, 3, 7}, uint8(8))
	f.Add(int64(4), []byte{3, 1, 3, 5, 5, 0, 2, 1, 1, 2, 0, 0}, uint8(1))
	f.Add(int64(5), []byte{6, 1, 2, 0}, uint8(2))
	var pool jobPool
	f.Fuzz(func(t *testing.T, seed int64, mut []byte, procs uint8) {
		if len(mut) > 32 {
			mut = mut[:32]
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + int(procs)%8))
		s := genSchedule(rand.New(rand.NewSource(seed)), mut)
		checkSchedule(t, pool.get(len(s)), s)
	})
}
