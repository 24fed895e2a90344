package mpi

import (
	"errors"
	"testing"
	"time"
)

// The desertion tests use generous job timeouts so a pass proves the
// deterministic fast path fired, not the wall-clock safety net.

func TestCollectiveDesertsWhenPeerLeaves(t *testing.T) {
	j := NewJob(2, 30*time.Second)
	errCh := make(chan error, 1)
	go func() {
		errCh <- j.Endpoint(1).Barrier()
	}()
	// Give rank 1 a moment to block in the round, then desert as rank 0.
	time.Sleep(10 * time.Millisecond)
	j.Leave(0)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeserted) {
			t.Fatalf("barrier after peer left: got %v, want ErrDeserted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier did not desert; still blocked")
	}
}

func TestCollectiveDesertsWhenPeerAlreadyLeft(t *testing.T) {
	j := NewJob(2, 30*time.Second)
	j.Leave(0)
	if err := j.Endpoint(1).Barrier(); !errors.Is(err, ErrDeserted) {
		t.Fatalf("barrier with departed peer: got %v, want ErrDeserted", err)
	}
}

func TestRecvDrainsQueueThenDeserts(t *testing.T) {
	j := NewJob(2, 30*time.Second)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	if err := e0.Send(1, 7, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	j.Leave(0)
	// The queued message survives the departure and must still be delivered.
	got, err := e1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Errorf("got %q", got)
	}
	// Nothing further can ever arrive.
	if _, err := e1.Recv(0, 7); !errors.Is(err, ErrDeserted) {
		t.Fatalf("recv from departed rank: got %v, want ErrDeserted", err)
	}
}

func TestRecvDesertsWhileBlocked(t *testing.T) {
	j := NewJob(2, 30*time.Second)
	errCh := make(chan error, 1)
	go func() {
		_, err := j.Endpoint(1).Recv(0, 7)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	j.Leave(0)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeserted) {
			t.Fatalf("recv after peer left: got %v, want ErrDeserted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv did not desert; still blocked")
	}
}

func TestSendToDepartedRankDesertsWhenQueueFull(t *testing.T) {
	j := NewJob(2, 30*time.Second)
	e0 := j.Endpoint(0)
	// Fill rank 1's queue from rank 0; the next send must block.
	for i := 0; i < mailboxCap; i++ {
		if err := e0.Send(1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	j.Leave(1)
	if err := e0.Send(1, 1, nil); !errors.Is(err, ErrDeserted) {
		t.Fatalf("send to departed rank with full queue: got %v, want ErrDeserted", err)
	}
}

func TestRecycleClearsDepartures(t *testing.T) {
	j := NewJob(2, 50*time.Millisecond)
	j.Leave(0)
	if err := j.Endpoint(1).Barrier(); !errors.Is(err, ErrDeserted) {
		t.Fatalf("pre-recycle barrier: got %v, want ErrDeserted", err)
	}
	if !j.Recycle(2, 50*time.Millisecond) {
		t.Fatal("recycle refused a same-shape job")
	}
	// With the departure cleared, a lone barrier waits out the (short)
	// safety timeout instead of deserting immediately.
	if err := j.Endpoint(1).Barrier(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("post-recycle barrier: got %v, want ErrTimeout", err)
	}
}

func TestLeaveIsIdempotentAndDoesNotAbort(t *testing.T) {
	j := NewJob(2, time.Second)
	j.Leave(0)
	j.Leave(0)
	if j.Aborted() {
		t.Fatal("Leave must not abort the job")
	}
	if !j.hasLeft(0) || j.hasLeft(1) {
		t.Fatal("departure flags wrong")
	}
}
