package mpi

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The deadlock tests use a job timeout far above their run time, so a pass
// proves the verdict was reached in logical time, not waited out.
const farTimeout = 30 * time.Second

// runRanks runs one function per rank and returns what each returned.
func runRanks(j *Job, body func(e *Endpoint) error) []error {
	errs := make([]error, j.Size())
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(j.Endpoint(r))
		}(r)
	}
	wg.Wait()
	return errs
}

func TestDeadlockNamesEveryWait(t *testing.T) {
	j := NewJob(4, farTimeout)
	errs := runRanks(j, func(e *Endpoint) error {
		switch e.Rank() {
		case 2:
			_, err := e.Recv(3, 7)
			return err
		default:
			_, _, err := e.Allreduce([]uint64{1}, []uint64{1}, 0, false)
			return err
		}
	})
	const want = "mpi: deadlock: ranks 0,1,3: allreduce 3/4 arrived; rank 2: recv from 3 tag 7"
	for r, err := range errs {
		if !errors.Is(err, ErrDeadlock) || err.Error() != want {
			t.Errorf("rank %d: got %v, want %q", r, err, want)
		}
	}
	if !j.Deadlocked() || j.TimedOut() {
		t.Errorf("Deadlocked=%v TimedOut=%v, want true, false", j.Deadlocked(), j.TimedOut())
	}
}

// A rank that finishes while its peers wait on each other leaves a deadlock
// behind, not a desertion: nobody waits for the departed rank.
func TestDeadlockDeclaredByTheLastDeparture(t *testing.T) {
	j := NewJob(3, farTimeout)
	errs := runRanks(j, func(e *Endpoint) error {
		if e.Rank() < 2 {
			_, err := e.Recv(1-e.Rank(), 1)
			return err
		}
		// Leave once both peers are parked.
		for parked := 0; parked < 2; runtime.Gosched() {
			j.leaveMu.Lock()
			parked = j.nblocked
			j.leaveMu.Unlock()
		}
		j.Leave(2)
		return nil
	})
	const want = "mpi: deadlock: rank 0: recv from 1 tag 1; rank 1: recv from 0 tag 1; rank 2: finished"
	for r, err := range errs[:2] {
		if err == nil || err.Error() != want {
			t.Errorf("rank %d: got %v, want %q", r, err, want)
		}
	}
}

// Every rank reports the deadlock, whichever of them is scheduled first and
// kills the job on its way out, as core's rank goroutines do.
func TestDeadlockPreferredOverAbort(t *testing.T) {
	for i := 0; i < 200; i++ {
		j := NewJob(3, farTimeout)
		errs := runRanks(j, func(e *Endpoint) error {
			_, err := e.Recv((e.Rank()+1)%3, 0)
			j.Kill()
			return err
		})
		for r, err := range errs {
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("round %d rank %d: got %v, want ErrDeadlock", i, r, err)
			}
		}
	}
}

func TestRecycleClearsDeadlock(t *testing.T) {
	j := NewJob(2, farTimeout)
	mutual := func(e *Endpoint) error {
		_, err := e.Recv(1-e.Rank(), 0)
		return err
	}
	for r, err := range runRanks(j, mutual) {
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("rank %d: got %v, want ErrDeadlock", r, err)
		}
	}
	if !j.Recycle(2, farTimeout) {
		t.Fatal("recycle refused a same-shape job")
	}
	if j.Deadlocked() {
		t.Fatal("the verdict survived Recycle")
	}
	// The recycled job runs a healthy exchange, and detects the next deadlock.
	errs := runRanks(j, func(e *Endpoint) error {
		if err := e.Send(1-e.Rank(), 0, []byte{1}); err != nil {
			return err
		}
		if _, err := e.Recv(1-e.Rank(), 0); err != nil {
			return err
		}
		return e.Barrier()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after recycle: %v", r, err)
		}
	}
	for r, err := range runRanks(j, mutual) {
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("rank %d, second deadlock: got %v, want ErrDeadlock", r, err)
		}
	}
}

// TestLivenessCountersFollowWorld is rule 3: a restored world's queued
// messages count as sent and not yet taken, a drained world's counters are
// zero, and the same-snapshot fast path keeps valid counters. The world is
// one full mailbox, where a stale counter hides a deadlock: the parked
// sender, or the receiver of a message that is not there, looks ready for
// ever, and the run waits out the (here short) timeout.
func TestLivenessCountersFollowWorld(t *testing.T) {
	const timeout = 3 * time.Second
	j := NewJob(2, timeout)
	recycle := func() {
		t.Helper()
		if !j.Recycle(2, timeout) {
			t.Fatal("recycle refused a same-shape job")
		}
	}
	for i := 0; i < mailboxCap; i++ {
		if err := j.Endpoint(0).Send(1, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := j.SnapshotWorld(nil)

	// Rank 0 sends into the full mailbox while rank 1 waits on itself.
	stuckSend := func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 5, nil)
		}
		_, err := e.Recv(1, 0)
		return err
	}
	// Both ranks receive from the other.
	mutualRecv := func(e *Endpoint) error {
		_, err := e.Recv(1-e.Rank(), 5)
		return err
	}
	check := func(leg string, body func(*Endpoint) error, want string) {
		t.Helper()
		for r, err := range runRanks(j, body) {
			if err == nil || err.Error() != want {
				t.Fatalf("%s: rank %d: got %v, want %q", leg, r, err, want)
			}
		}
	}
	const sendStuck = "mpi: deadlock: rank 0: send to 1 tag 5, mailbox full; rank 1: recv from 1 tag 0"
	check("live world", stuckSend, sendStuck)

	recycle()
	j.RestoreWorld(snap)
	check("restored world", stuckSend, sendStuck)

	// Rank 1 takes five messages and both finish, leaving taken counts
	// behind; restoring directly over them must reset them.
	recycle()
	j.RestoreWorld(snap)
	for r, err := range runRanks(j, func(e *Endpoint) error {
		for i := 0; e.Rank() == 1 && i < 5; i++ {
			if _, err := e.Recv(0, 5); err != nil {
				return err
			}
		}
		return nil
	}) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	j.RestoreWorld(snap)
	check("restored over a used world", stuckSend, sendStuck)

	// Same snapshot twice with no Send/Recv between: the fast path keeps
	// the world, and its counters, in place.
	recycle()
	j.RestoreWorld(snap)
	recycle()
	j.RestoreWorld(snap)
	check("re-restored world", stuckSend, sendStuck)

	// Cleared while the restored messages are still queued: nothing is
	// there to receive any more.
	recycle()
	j.RestoreWorld(snap)
	recycle()
	j.ClearWorld()
	check("cleared world", mutualRecv, "mpi: deadlock: rank 0: recv from 1 tag 5; rank 1: recv from 0 tag 5")
}
