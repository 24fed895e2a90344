package mpi

import (
	"bytes"
	"slices"
)

// World snapshot support for the snapshot-fork fast path. A multi-rank cut
// is taken while every rank of the job is parked at the same quiesce point
// (immediately after a collective round): the round is fully drained — the
// last arrival published the result, every waiter consumed it, c.cur is
// nil — so the only live message-passing state is the point-to-point mail
// queues and each endpoint's tag-matching pending buffers. Both are
// single-writer structures whose contents at the cut are a pure function of
// the program, which is what makes a restored world equal to a re-executed
// one. The same walk over them compares a live world with a captured one
// (WorldEqual), which is half of what lets an experiment end at a cut where
// it is back in the golden state.

// WorldSnap is a deep copy of a job's message-passing state at a quiesce
// cut. One snapshot can seed any number of restored runs.
type WorldSnap struct {
	size int
	// mail[dst][src] holds the queued messages in FIFO order.
	mail [][][]message
	// pending[rank][src] holds each endpoint's set-aside messages.
	pending [][][]message
}

// copyMsgs deep-copies messages (payload bytes included) into dst's backing.
func copyMsgs(dst []message, src []message) []message {
	dst = dst[:0]
	for _, m := range src {
		dst = append(dst, message{tag: m.tag, data: append([]byte(nil), m.data...)})
	}
	return dst
}

// walkWorld shows visit every queue of the job's message-passing state:
// each inbox's queue from src in FIFO order (mail true), then each
// endpoint's pending[rank][src] (mail false). The slices it shows alias the
// live queues and must not be kept or changed. The walk stops at the first
// visit that returns false and reports whether none did. Safe only while no
// rank goroutine uses its endpoint — every rank parked at a cut, or none
// running.
func (j *Job) walkWorld(visit func(mail bool, r, src int, msgs []message) bool) bool {
	for dst := range j.eps {
		for src := range j.eps[dst].in.from {
			if !visit(true, dst, src, j.eps[dst].in.from[src].items()) {
				return false
			}
		}
	}
	for r := range j.eps {
		for src, msgs := range j.eps[r].pending {
			if !visit(false, r, src, msgs) {
				return false
			}
		}
	}
	return true
}

// SnapshotWorld captures the job's mail queues and pending buffers into s
// (reusing s's structure when possible; nil allocates). It must be called
// while every rank goroutine is parked — no concurrent endpoint use — and
// leaves the job state untouched.
func (j *Job) SnapshotWorld(s *WorldSnap) *WorldSnap {
	if s == nil {
		s = &WorldSnap{}
	}
	if s.size != j.size {
		s.size = j.size
		s.mail = make([][][]message, j.size)
		s.pending = make([][][]message, j.size)
		for r := 0; r < j.size; r++ {
			s.mail[r] = make([][]message, j.size)
			s.pending[r] = make([][]message, j.size)
		}
	}
	j.walkWorld(func(mail bool, r, src int, msgs []message) bool {
		q := s.pending
		if mail {
			q = s.mail
		}
		q[r][src] = copyMsgs(q[r][src], msgs)
		return true
	})
	return s
}

// WorldEqual reports whether the job's mail queues and pending buffers hold
// exactly the messages s captured — the same tags and payload bytes, queue
// by queue and in order. Like SnapshotWorld it must be called while every
// rank goroutine is parked, and leaves the job state untouched.
func (j *Job) WorldEqual(s *WorldSnap) bool {
	if s.size != j.size {
		return false
	}
	return j.walkWorld(func(mail bool, r, src int, msgs []message) bool {
		want := s.pending[r][src]
		if mail {
			want = s.mail[r][src]
		}
		return slices.EqualFunc(msgs, want, func(a, b message) bool {
			return a.tag == b.tag && bytes.Equal(a.data, b.data)
		})
	})
}

// RestoreWorld rewinds the job's message-passing state to the snapshot:
// it empties every queue and refills it, so it needs no earlier drain.
// Call it between runs on a job of the same shape with no rank goroutines
// alive (after Recycle). Message payloads are deep-copied out of the
// snapshot — restored runs hand receive buffers to the wire freelist, which
// must never alias snapshot state.
func (j *Job) RestoreWorld(s *WorldSnap) {
	if s.size != j.size {
		panic("mpi: RestoreWorld on a job of a different size")
	}
	for dst := range j.eps {
		e := &j.eps[dst]
		for src := range e.in.from {
			q := &e.in.from[src]
			*q = queue{msgs: copyMsgs(shrink(q.msgs), s.mail[dst][src])}
			// The liveness counters follow the world: what is queued was
			// sent, and nothing of it has been taken.
			j.eps[src].sent[dst].Store(int64(q.len()))
			e.taken[src].Store(0)
			e.pending[src] = copyMsgs(shrink(e.pending[src]), s.pending[dst][src])
		}
	}
}
