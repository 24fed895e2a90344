package mpi

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// heapOf returns how much the live Go heap grows while build's result is
// kept reachable.
func heapOf[T any](build func() T) (T, int64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return v, int64(ms.HeapAlloc) - before
}

// TestJobFootprint bounds what a job holds between runs: its inboxes store
// the messages in flight, not mailboxCap slots per pair, so a 64-rank job
// fits in a fraction of a megabyte (per-pair channels made it 128 MiB), and
// a queue a runaway sender filled is given back when the job is recycled.
func TestJobFootprint(t *testing.T) {
	const ranks, bound = 64, 512 << 10
	j, fresh := heapOf(func() *Job {
		j := NewJob(ranks, time.Second)
		if !j.Recycle(ranks, time.Second) {
			t.Fatal("recycle refused a same-shape job")
		}
		return j
	})
	t.Logf("NewJob(%d) + Recycle: %d KiB", ranks, fresh>>10)
	if fresh > bound {
		t.Errorf("NewJob(%d) + Recycle holds %d KiB, want at most %d", ranks, fresh>>10, bound>>10)
	}

	// A flood of mailboxCap messages on one pair, drained, then recycled.
	_, flooded := heapOf(func() *Job {
		e0, e1 := j.Endpoint(0), j.Endpoint(1)
		for i := 0; i < mailboxCap; i++ {
			if err := e0.Send(1, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < mailboxCap; i++ {
			if _, err := e1.Recv(0, 3); err != nil {
				t.Fatal(err)
			}
		}
		if !j.Recycle(ranks, time.Second) {
			t.Fatal("recycle refused a same-shape job")
		}
		return j
	})
	runtime.KeepAlive(j)
	t.Logf("after a flood of %d messages and Recycle: %+d KiB", mailboxCap, flooded>>10)
	if fresh+flooded > bound {
		t.Errorf("flooded and recycled job holds %d KiB, want at most %d", (fresh+flooded)>>10, bound>>10)
	}
	// The flooded queue's backing alone is mailboxCap messages; recycling
	// must give it back, not keep it for the next run.
	if backing := int64(mailboxCap * unsafe.Sizeof(message{})); flooded >= backing/2 {
		t.Errorf("recycling a flooded job kept %d KiB of its %d KiB queue", flooded>>10, backing>>10)
	}
}

// TestQueueReusesBacking: a queue that never empties — a few messages
// always in flight — keeps its order and compacts into its backing instead
// of growing it.
func TestQueueReusesBacking(t *testing.T) {
	var q queue
	next, want := 0, 0
	for round := 0; round < 10000; round++ {
		for q.len() < 1+round%3 {
			q.push(message{tag: next})
			next++
		}
		if m := q.pop(); m.tag != want {
			t.Fatalf("round %d: popped tag %d, want %d", round, m.tag, want)
		}
		want++
	}
	if cap(q.msgs) > 8 {
		t.Errorf("backing grew to %d messages with at most 3 in flight", cap(q.msgs))
	}
}
