package mpi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// Collectives use a rendezvous protocol: the first arriving rank of a round
// creates the round, each rank deposits its contribution, and the last
// arrival computes the result and publishes it by handing one token per
// waiter through the round's ready channel (a send happens-before the
// matching receive, so the result is visible). SPMD programs enter
// collectives in lockstep, so one active round per job suffices; a fresh
// round starts as soon as the previous one is complete, even while earlier
// waiters are still reading their result.

type collKind int

const (
	collBarrier collKind = iota
	collAllreduce
	collBcast
)

type contribution struct {
	kind    collKind
	prim    []uint64
	prist   []uint64
	op      ir.ReduceOp
	isFloat bool
	bcast   []byte
	isRoot  bool
}

type result struct {
	prim  []uint64
	prist []uint64
	bcast []byte
}

type round struct {
	arrived int
	// readers counts ranks that have yet to read the published result; the
	// last one returns the round to the freelist.
	readers atomic.Int32
	contrib []contribution
	present []bool
	// ready carries one token per waiter (capacity size-1). A recycled
	// round's channel is empty — every waiter of the previous use consumed
	// its token, or the round leaked — so the channel itself is reused.
	ready chan struct{}
	res   result
	err   error
	// resP and resS back allreduce results across recycles. Safe to reuse:
	// combine (the only writer) runs at the last arrival of a round, which
	// cannot happen while any rank is still reading the previous result —
	// that rank has not entered the new round yet.
	resP, resS []uint64
}

type coll struct {
	mu   sync.Mutex
	size int
	cur  *round
	// free is a one-slot round freelist. A round is recycled only after
	// every rank has read its result; rounds deserted by a departed rank
	// never reach that count and simply fall to the garbage collector.
	free *round
}

func (c *coll) newRound() *round {
	r := c.free
	if r != nil {
		c.free = nil
		r.arrived = 0
		clear(r.contrib)
		clear(r.present)
		r.res, r.err = result{}, nil
	} else {
		r = &round{
			contrib: make([]contribution, c.size),
			present: make([]bool, c.size),
			ready:   make(chan struct{}, c.size-1),
		}
	}
	r.readers.Store(int32(c.size))
	return r
}

// release is called by a rank after it has read r.res/r.err.
func (c *coll) release(r *round) {
	if r.readers.Add(-1) == 0 {
		c.mu.Lock()
		if c.free == nil {
			c.free = r
		}
		c.mu.Unlock()
	}
}

func (c *coll) join(e *Endpoint, cb contribution) (result, error) {
	rank := e.rank
	c.mu.Lock()
	if c.cur == nil {
		c.cur = c.newRound()
	}
	r := c.cur
	if r.present[rank] {
		c.mu.Unlock()
		return result{}, fmt.Errorf("mpi: rank %d entered the same collective round twice", rank)
	}
	r.present[rank] = true
	r.contrib[rank] = cb
	r.arrived++
	if r.arrived == c.size {
		r.res, r.err = combine(r.contrib, r)
		for i := 1; i < c.size; i++ {
			r.ready <- struct{}{}
		}
		c.cur = nil
		c.mu.Unlock()
		// Last arrival: the round is complete, no wait needed.
		res, err := r.res, r.err
		c.release(r)
		return res, err
	}
	c.mu.Unlock()

	j := e.job
	t := e.armTimer()
	defer e.disarmTimer()
	for {
		wake, err := j.block(rank, wait{kind: waitColl, round: r})
		if err != nil {
			return result{}, err
		}
		select {
		case <-r.ready:
			// Unregister before releasing: a released round is recycled for
			// the next collective, and a wait still registered on it would be
			// judged by that round's arrival count (liveness.go, rule 2).
			j.unblock(rank)
			res, err := r.res, r.err
			c.release(r)
			return res, err
		case <-t.C:
			return result{}, j.timeOut(rank)
		case <-wake:
		}
	}
}

// combine validates that all ranks entered the same collective with
// compatible shapes and computes the result. Mismatches — which arise when
// a corrupted value changes a count or a code path — are job-fatal errors,
// as they would be under a real MPI. Allreduce results are built in r's
// reusable backing; see the round field comments for why that is safe.
func combine(contribs []contribution, r *round) (result, error) {
	kind := contribs[0].kind
	for r, cb := range contribs {
		if cb.kind != kind {
			return result{}, fmt.Errorf("mpi: rank %d entered %v, rank 0 entered %v", r, cb.kind, kind)
		}
	}
	switch kind {
	case collBarrier:
		return result{}, nil
	case collBcast:
		var root *contribution
		for r := range contribs {
			if contribs[r].isRoot {
				if root != nil {
					return result{}, fmt.Errorf("mpi: multiple bcast roots")
				}
				root = &contribs[r]
			}
		}
		if root == nil {
			return result{}, fmt.Errorf("mpi: bcast without a root")
		}
		return result{bcast: root.bcast}, nil
	case collAllreduce:
		n := len(contribs[0].prim)
		op := contribs[0].op
		isFloat := contribs[0].isFloat
		for r, cb := range contribs {
			if len(cb.prim) != n || len(cb.prist) != n {
				return result{}, fmt.Errorf("mpi: rank %d allreduce count %d, rank 0 has %d", r, len(cb.prim), n)
			}
			if cb.op != op || cb.isFloat != isFloat {
				return result{}, fmt.Errorf("mpi: rank %d allreduce op mismatch", r)
			}
		}
		prim := append(r.resP[:0], contribs[0].prim...)
		prist := append(r.resS[:0], contribs[0].prist...)
		r.resP, r.resS = prim, prist
		for _, cb := range contribs[1:] {
			for i := 0; i < n; i++ {
				prim[i] = reduceWord(prim[i], cb.prim[i], op, isFloat)
				prist[i] = reduceWord(prist[i], cb.prist[i], op, isFloat)
			}
		}
		return result{prim: prim, prist: prist}, nil
	}
	return result{}, fmt.Errorf("mpi: unknown collective kind %d", kind)
}

func reduceWord(a, b uint64, op ir.ReduceOp, isFloat bool) uint64 {
	if isFloat {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var z float64
		switch op {
		case ir.ReduceSum:
			z = x + y
		case ir.ReduceMin:
			z = math.Min(x, y)
		case ir.ReduceMax:
			z = math.Max(x, y)
		default:
			z = x + y
		}
		return math.Float64bits(z)
	}
	x, y := int64(a), int64(b)
	var z int64
	switch op {
	case ir.ReduceSum:
		z = x + y
	case ir.ReduceMin:
		z = x
		if y < x {
			z = y
		}
	case ir.ReduceMax:
		z = x
		if y > x {
			z = y
		}
	default:
		z = x + y
	}
	return uint64(z)
}

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "barrier"
	case collAllreduce:
		return "allreduce"
	case collBcast:
		return "bcast"
	}
	return "collective?"
}
