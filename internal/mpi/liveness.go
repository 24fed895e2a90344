package mpi

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Liveness: the one place that decides whether a parked call can ever
// complete. A rank that parks in the slow path of Send, Recv or a collective
// registers what it waits for in the job's wait table, under leaveMu; the
// same critical section judges the wait against the departures (desertion,
// ErrDeserted) and, when the registration or a Leave leaves no rank running,
// judges every registered wait (deadlock, ErrDeadlock). Both verdicts are
// reached in logical time: they depend on what the ranks did, never on how
// long they took to do it.
//
// The judgement is exact because of three rules. A rank that has been handed
// its message, its mailbox slot or its round token, but has not yet run to
// unregister, is not blocked, and must not be taken for blocked:
//
//  1. Point-to-point waits are judged by counters, not by queue lengths. The
//     sender counts a message after pushing it onto the receiver's inbox
//     queue (Endpoint.sent), the receiver after popping it (Endpoint.taken).
//     A Recv wait holds the receiver's taken count at registration: a higher
//     sent count means the message is there or already handed over, so a
//     Recv registers again after every take before it parks. A Send wait is
//     ready when sent − taken is below the mailbox capacity, in signed
//     arithmetic — the receiver may pop a message before its sender has
//     counted it, so the difference can be −1. Whoever is behind on a
//     counter is running, so no judgement is passed while a counter is
//     stale in the unsafe direction.
//  2. A collective wait is judged by round.arrived == size, and a waiter
//     unregisters before it releases the round: a released round is recycled
//     for the next collective, and a wait still registered on it would be
//     judged by the next round's arrival count.
//  3. The counters follow the world: RestoreWorld sets sent to the restored
//     queue length and taken to zero, drainWorld zeroes both.

// ErrDeadlock is returned by every parked call of a job once no rank is
// running and no parked call can complete: each live rank waits for a
// message nobody will send, a mailbox slot nobody will free, or a collective
// round that will never fill. The returned error wraps ErrDeadlock and names
// each rank's wait. It is the logical-time form of what ErrTimeout reports
// after the wall-clock timeout, surfaces in the VM as the same peer-failure
// trap, and is preferred over ErrAborted when both are ready, so a rank's
// error does not depend on which deadlocked peer was scheduled first.
var ErrDeadlock = errors.New("mpi: deadlock")

type waitKind uint8

const (
	waitNone waitKind = iota
	waitSend
	waitRecv
	waitColl
)

// wait is what one parked rank waits for.
type wait struct {
	kind waitKind
	// peer is the destination of a Send, the source of a Recv.
	peer int
	tag  int
	// taken is a Recv's count of messages taken from peer at registration.
	taken int64
	// round is the collective round a waitColl joined.
	round *round
}

// verdict is the judgement of one registered wait.
type verdict uint8

const (
	// stuck: only another rank's action can end the wait.
	stuck verdict = iota
	// ready: what the rank waits for is there; it has been or is about to
	// be woken.
	ready
	// deserted: a rank the wait depends on has left; the call ends on its
	// own with ErrDeserted.
	deserted
)

// judge decides whether rank's wait w can still complete. leaveMu held.
func (j *Job) judge(rank int, w *wait) verdict {
	switch w.kind {
	case waitSend:
		inFlight := j.eps[rank].sent[w.peer].Load() - j.eps[w.peer].taken[rank].Load()
		if inFlight < mailboxCap {
			return ready
		}
		// A departed receiver never drains its queue: all its takes are
		// counted before its Leave, so the queue stays full.
		if j.left[w.peer] {
			return deserted
		}
	case waitRecv:
		if j.eps[w.peer].sent[rank].Load() > w.taken {
			return ready
		}
		// All of a rank's sends are counted before its Leave, so nothing
		// further can arrive.
		if j.left[w.peer] {
			return deserted
		}
	case waitColl:
		c := &j.coll
		c.mu.Lock()
		defer c.mu.Unlock()
		if w.round.arrived == c.size {
			// Complete; the result token is (or will be) in round.ready.
			return ready
		}
		// A collective needs all ranks: the round is dead as soon as a rank
		// has left without having joined it. Ranks present in the round
		// cannot leave while it is incomplete (join blocks them).
		for i, l := range j.left {
			if l && !w.round.present[i] {
				return deserted
			}
		}
	}
	return stuck
}

// block registers that rank parks on w and returns the channel that wakes
// it when the job's liveness changes (a departure or a deadlock verdict);
// the caller selects on it beside the event it waits for, and calls block
// again when woken, with the wait as it then stands. It returns ErrDeserted
// when w can never complete because of a departure, and the deadlock error
// when the job is deadlocked — by this very registration, if it is the one
// that leaves no rank running and no wait able to complete.
func (j *Job) block(rank int, w wait) (<-chan struct{}, error) {
	j.pause()
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	if j.deadlock == nil {
		// Only a departure deserts a wait.
		if j.nleft > 0 && j.judge(rank, &w) == deserted {
			j.unregister(rank)
			return nil, ErrDeserted
		}
		if j.waits[rank].kind == waitNone {
			j.nblocked++
		}
		j.waits[rank] = w
		if !j.allStuck() {
			return j.leaveCh, nil
		}
		j.declareDeadlock()
	}
	j.unregister(rank)
	return nil, j.deadlock
}

// unblock removes rank's wait after the call it parked in completed.
func (j *Job) unblock(rank int) {
	j.pause()
	j.leaveMu.Lock()
	j.unregister(rank)
	j.leaveMu.Unlock()
}

// fail removes rank's wait after the call it parked in failed with err
// (ErrAborted or ErrTimeout), and returns the error the call reports: the
// deadlock error if the job was declared deadlocked meanwhile, else err.
func (j *Job) fail(rank int, err error) error {
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	j.unregister(rank)
	if j.deadlock != nil {
		return j.deadlock
	}
	if err == ErrTimeout {
		j.timedOut = true
	}
	return err
}

// unregister clears rank's wait table entry. leaveMu held.
func (j *Job) unregister(rank int) {
	if j.waits[rank].kind != waitNone {
		j.waits[rank] = wait{}
		j.nblocked--
	}
}

// allStuck reports whether the job is deadlocked: no rank is running — every
// one is parked or has left, so nothing can change a stuck wait's condition
// any more — and none of the parked calls can complete. leaveMu held.
func (j *Job) allStuck() bool {
	if j.nblocked == 0 || j.nblocked+j.nleft < j.size {
		return false
	}
	for r := range j.waits {
		if w := &j.waits[r]; w.kind != waitNone && j.judge(r, w) != stuck {
			return false
		}
	}
	return true
}

// declareDeadlock records the verdict and wakes every parked call to
// collect it. leaveMu held.
func (j *Job) declareDeadlock() {
	j.deadlock = fmt.Errorf("%w: %s", ErrDeadlock, j.describeWaits())
	j.wakeAll()
}

// wakeAll wakes every parked call so it re-registers and is judged anew.
// leaveMu held.
func (j *Job) wakeAll() {
	close(j.leaveCh)
	j.leaveCh = make(chan struct{})
}

// describeWaits renders the wait table for the deadlock error, ranks with
// the same wait grouped: "rank 2: recv from 3 tag 7; ranks 0,1,3: allreduce
// 3/4 arrived". leaveMu held.
func (j *Job) describeWaits() string {
	var descs []string
	var ranks [][]string
	for r := range j.waits {
		d := j.describeWait(r)
		i := slices.Index(descs, d)
		if i < 0 {
			i = len(descs)
			descs = append(descs, d)
			ranks = append(ranks, nil)
		}
		ranks[i] = append(ranks[i], fmt.Sprint(r))
	}
	var b strings.Builder
	for i, d := range descs {
		if i > 0 {
			b.WriteString("; ")
		}
		if len(ranks[i]) == 1 {
			b.WriteString("rank ")
		} else {
			b.WriteString("ranks ")
		}
		b.WriteString(strings.Join(ranks[i], ","))
		b.WriteString(": ")
		b.WriteString(d)
	}
	return b.String()
}

func (j *Job) describeWait(rank int) string {
	switch w := &j.waits[rank]; w.kind {
	case waitSend:
		return fmt.Sprintf("send to %d tag %d, mailbox full", w.peer, w.tag)
	case waitRecv:
		return fmt.Sprintf("recv from %d tag %d", w.peer, w.tag)
	case waitColl:
		c := &j.coll
		c.mu.Lock()
		defer c.mu.Unlock()
		return fmt.Sprintf("%v %d/%d arrived", w.round.contrib[rank].kind, w.round.arrived, c.size)
	}
	// With no rank running, a rank without a wait has left.
	return "finished"
}

// Leave records that rank's goroutine has returned cleanly and will never
// communicate again, and wakes every parked call so it is judged anew: once
// a rank has left, no collective round it is absent from can ever complete,
// and no new message from it can ever arrive. If the departure leaves no
// rank running and no parked call able to complete, the job is deadlocked.
// The caller must guarantee all of rank's sends happened before Leave
// (returning from the rank's program body does). Idempotent.
func (j *Job) Leave(rank int) {
	if rank < 0 || rank >= j.size {
		panic(fmt.Sprintf("mpi: leave of invalid rank %d", rank))
	}
	j.pause()
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	if j.left[rank] {
		return
	}
	j.left[rank] = true
	j.nleft++
	if j.deadlock == nil && j.allStuck() {
		j.declareDeadlock()
		return
	}
	j.wakeAll()
}

// Deadlocked reports whether the current run ended in a detected deadlock.
func (j *Job) Deadlocked() bool {
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	return j.deadlock != nil
}

// TimedOut reports whether a blocking call of the current run hit the
// wall-clock safety timeout. With deadlocks detected in logical time nothing
// legitimate blocks that long: true is a framework bug to report.
func (j *Job) TimedOut() bool {
	j.leaveMu.Lock()
	defer j.leaveMu.Unlock()
	return j.timedOut
}

// pause is the tests' scheduling seam: it runs the job's yield hook, if one
// is set, at the edges of the windows the exactness rules are about (between
// a queue operation and its counter, before registering, before
// unregistering, before leaving).
func (j *Job) pause() {
	if j.yield != nil {
		j.yield()
	}
}
