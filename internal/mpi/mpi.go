// Package mpi is the in-process message-passing runtime that stands in for
// MPI in the paper's experiments. Each rank is a goroutine executing its own
// VM over a private address space; ranks exchange byte messages (payload +
// contamination header, paper Fig. 4) over per-pair ordered queues, and
// synchronize through rendezvous-based collectives.
//
// A rank leaves the job when its goroutine returns, cleanly or with a
// failure — a trap, an application MPI_Abort — and a departure is the only
// way a rank's fate reaches its peers (liveness.go). The messages it sent
// stay deliverable; a call that waits on it and can never complete returns
// ErrDeserted, and once every rank is parked or gone and no parked call can
// complete, all of them return ErrDeadlock. A peer of a failed rank thus
// runs on until its own failure, or until its first call that needs the
// departed rank, so which ranks fail, and where, is a function of what the
// ranks did, decided under one mutex with no clock involved (class C in the
// outcome taxonomy). The wall-clock timeout remains only as the net under
// framework bugs.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// ErrTimeout is returned when a blocking call exceeds the job's wall-clock
// safety timeout. It is a defense against framework bugs, not an MPI feature
// and not how stalled experiments end: a wait that can never complete is
// ended by ErrDeserted or ErrDeadlock the moment that becomes true. A fired
// timeout therefore means the liveness bookkeeping missed a case (or a rank
// stalled outside MPI), and is itself a bug report.
var ErrTimeout = errors.New("mpi: wall-clock timeout")

// ErrDeserted is returned when a blocking call can provably never complete
// because a peer rank it depends on has left the job, by finishing its
// program or by failing: a collective round missing a departed rank will
// never fill, and a receive from a departed rank with an empty queue will
// never match. A desynchronized collective schedule is a common consequence
// of an injected fault corrupting a trip count. ErrDeadlock is the general
// case, with every remaining rank parked. Like ErrTimeout it surfaces in
// the VM as a peer-failure trap.
var ErrDeserted = errors.New("mpi: peer rank left; operation can never complete")

type message struct {
	tag  int
	data []byte
}

// queue is one source's FIFO of messages in an inbox, oldest at head. Its
// backing holds only what is in flight: a take that empties it rewinds it,
// and a push that meets the end of the backing compacts first, so a queue
// that never empties reuses its storage instead of growing it.
type queue struct {
	msgs []message
	head int
}

func (q *queue) len() int { return len(q.msgs) - q.head }

// items returns the queued messages, oldest first, aliasing the backing.
func (q *queue) items() []message { return q.msgs[q.head:] }

func (q *queue) push(m message) {
	if len(q.msgs) == cap(q.msgs) && q.head > 0 {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
}

func (q *queue) pop() message {
	m := q.msgs[q.head]
	q.msgs[q.head] = message{}
	if q.head++; q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	return m
}

// keepQueued is the largest backing, in messages, that an emptied queue or
// pending buffer keeps across runs. The applications keep a few messages in
// flight per pair; a runaway sender's mailboxCap is given back, the way
// vm.Memory gives back an extent.
const keepQueued = 64

// shrink empties ms, dropping its backing when it is larger than keepQueued.
func shrink(ms []message) []message {
	if cap(ms) > keepQueued {
		return nil
	}
	clear(ms)
	return ms[:0]
}

// inbox is one rank's receiving end: from[src] holds the messages src has
// sent it and it has not taken yet, all under mu. A push is one lock and one
// append; only a receiver parked on an empty queue is woken, through arrive.
type inbox struct {
	mu   sync.Mutex
	from []queue
	// waitFor is the source whose queue the owner found empty and is about
	// to park on, or -1. The next push from it clears the flag and pokes
	// arrive (capacity 1, so the poke outlives a receiver not yet parked).
	waitFor int
	arrive  chan struct{}
}

// put queues m from src, unless src's queue already holds mailboxCap
// messages.
func (in *inbox) put(src int, m message) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	q := &in.from[src]
	if q.len() >= mailboxCap {
		return false
	}
	q.push(m)
	if in.waitFor == src {
		in.waitFor = -1
		poke(in.arrive)
	}
	return true
}

// poke leaves a token in a capacity-1 wake-up channel, unless one is there.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Job is one parallel run: size ranks, their inboxes, and the shared
// collective state.
type Job struct {
	size    int
	timeout time.Duration

	// Liveness (liveness.go), all under leaveMu. left[r] is set once rank
	// r's goroutine has returned, cleanly or not, and will never
	// communicate again;
	// waits[r] is what rank r is parked on, if it is. leaveCh is closed and
	// replaced on every departure and on a deadlock verdict, waking parked
	// calls so they register again and are judged anew. deadlock is the
	// verdict once declared; timedOut records a fired safety timeout.
	leaveMu  sync.Mutex
	left     []bool
	nleft    int
	waits    []wait
	nblocked int
	leaveCh  chan struct{}
	deadlock error
	timedOut bool
	// yield, when set (by tests, before any rank runs), is called at the
	// edges of the liveness windows; see pause.
	yield func()

	coll coll
	eps  []Endpoint

	// bufs is the wire-buffer freelist: receivers return fully consumed
	// message buffers here and senders draw from it, so steady-state
	// point-to-point traffic allocates no new buffers.
	bufs chan []byte
}

// defaultTimeout bounds blocking calls when the caller passes zero.
const defaultTimeout = 60 * time.Second

// mailboxCap is the logical depth of each per-pair queue: deep enough that
// the applications' halo exchanges never park a sender, so Send is
// effectively MPI's buffered mode and only a runaway sender meets a full
// mailbox. It bounds what may be in flight, not what is stored: a queue's
// backing grows only with the messages actually queued.
const mailboxCap = 1024

// NewJob creates a job with the given number of ranks. timeout bounds every
// blocking call; zero selects a generous default.
func NewJob(size int, timeout time.Duration) *Job {
	if size <= 0 {
		panic("mpi: job size must be positive")
	}
	if timeout == 0 {
		timeout = defaultTimeout
	}
	j := &Job{
		size:    size,
		timeout: timeout,
		left:    make([]bool, size),
		waits:   make([]wait, size),
		leaveCh: make(chan struct{}),
		bufs:    make(chan []byte, 256),
	}
	j.coll.size = size
	j.eps = make([]Endpoint, size)
	for r := range j.eps {
		j.eps[r] = Endpoint{
			job: j, rank: r, pending: make([][]message, size),
			sent: make([]atomic.Int64, size), taken: make([]atomic.Int64, size),
			space: make(chan struct{}, 1),
			in:    inbox{from: make([]queue, size), waitFor: -1, arrive: make(chan struct{}, 1)},
		}
	}
	return j
}

// Recycle prepares a completed job for another run of the same shape:
// inboxes are drained, pending buffers emptied, departures, waits and
// collective state cleared, while the endpoints and their timers survive.
// It returns false — leaving the job untouched — when the shape or timeout
// differs; the caller must then build a fresh job. Only call between runs,
// with no rank goroutines alive.
func (j *Job) Recycle(size int, timeout time.Duration) bool {
	if timeout == 0 {
		timeout = defaultTimeout
	}
	if j.size != size || j.timeout != timeout {
		return false
	}
	j.leaveMu.Lock()
	if j.nleft > 0 {
		clear(j.left)
		j.nleft = 0
	}
	if j.nblocked > 0 {
		clear(j.waits)
		j.nblocked = 0
	}
	j.deadlock, j.timedOut = nil, false
	j.leaveMu.Unlock()
	j.drainWorld()
	j.coll.mu.Lock()
	j.coll.cur = nil
	j.coll.mu.Unlock()
	return true
}

// drainWorld empties every inbox queue and pending buffer and zeroes the
// liveness counters with them.
func (j *Job) drainWorld() {
	for r := range j.eps {
		e := &j.eps[r]
		e.in.waitFor = -1
		for peer := range e.pending {
			e.in.from[peer] = queue{msgs: shrink(e.in.from[peer].msgs)}
			e.pending[peer] = shrink(e.pending[peer])
			e.sent[peer].Store(0)
			e.taken[peer].Store(0)
		}
	}
}

// Size returns the number of ranks.
func (j *Job) Size() int { return j.size }

// Kill makes every rank leave the job, so that each parked and future call
// that waits on another rank ends with ErrDeserted instead of waiting out
// the timeout: the teardown of a caller that drives endpoints by hand and
// stops on the first error. Runs of core do not use it; there a rank leaves
// when it returns.
func (j *Job) Kill() {
	for r := range j.size {
		j.Leave(r)
	}
}

// Endpoint returns rank r's endpoint. Each endpoint must be used by a
// single goroutine.
func (j *Job) Endpoint(r int) *Endpoint {
	if r < 0 || r >= j.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", r))
	}
	return &j.eps[r]
}

// Endpoint is one rank's connection to the job. It implements
// vm.MPIEndpoint.
type Endpoint struct {
	job  *Job
	rank int
	// pending[src] buffers messages received from src while looking for a
	// specific tag (tag matching with per-pair ordering).
	pending [][]message
	// tmr is the reusable wall-clock safety timer armed around blocking
	// waits. One timer per endpoint instead of one per call keeps the
	// communication-heavy experiment loop allocation-free.
	tmr *time.Timer
	// sent[dst] counts the messages this rank has pushed onto its queue in
	// dst's inbox, taken[src] the messages it has popped off src's queue in
	// its own — each counted after the queue operation, written only by the
	// rank's own goroutine, and read by whoever judges the job's waits
	// (liveness.go, rule 1).
	sent, taken []atomic.Int64
	// space is poked by a receiver that takes from this rank's full queue,
	// waking the sender parked on it. Capacity 1: the poke outlives a sender
	// not yet parked.
	space chan struct{}
	// in is this rank's inbox, shared with every sender under its mutex.
	in inbox
}

// armTimer returns the endpoint's timeout timer, armed with the job
// timeout. Every armTimer must be paired with disarmTimer before the next
// blocking call.
func (e *Endpoint) armTimer() *time.Timer {
	if e.tmr == nil {
		e.tmr = time.NewTimer(e.job.timeout)
	} else {
		e.tmr.Reset(e.job.timeout)
	}
	return e.tmr
}

// disarmTimer stops the armed timer, draining a concurrent expiry so the
// next Reset starts from a clean channel.
func (e *Endpoint) disarmTimer() {
	if !e.tmr.Stop() {
		select {
		case <-e.tmr.C:
		default:
		}
	}
}

var _ vm.MPIEndpoint = (*Endpoint)(nil)

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the job size.
func (e *Endpoint) Size() int { return e.job.size }

// Send enqueues msg for rank dst. It blocks only when dst's queue is full.
func (e *Endpoint) Send(dst, tag int, msg []byte) error {
	j := e.job
	if dst < 0 || dst >= j.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	in, m := &j.eps[dst].in, message{tag: tag, data: msg}
	// Fast path: queue has room (the common case with deep mailboxes).
	if in.put(e.rank, m) {
		j.pause()
		e.sent[dst].Add(1)
		return nil
	}
	t := e.armTimer()
	defer e.disarmTimer()
	for {
		wake, err := j.block(e.rank, wait{kind: waitSend, peer: dst, tag: tag})
		if err != nil {
			return err
		}
		select {
		case <-e.space:
		case <-t.C:
			return j.timeOut(e.rank)
		case <-wake:
		}
		if in.put(e.rank, m) {
			j.pause()
			e.sent[dst].Add(1)
			j.unblock(e.rank)
			return nil
		}
	}
}

// Recv blocks until a message with the given tag arrives from src.
// Messages from src with other tags are buffered and matched by later
// receives, preserving per-(pair, tag) ordering.
func (e *Endpoint) Recv(src, tag int) ([]byte, error) {
	j := e.job
	if src < 0 || src >= j.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	// Check messages already set aside.
	for i, m := range e.pending[src] {
		if m.tag == tag {
			// Delete zeroes the vacated tail slot, so the slice does not keep
			// the last payload reachable.
			e.pending[src] = slices.Delete(e.pending[src], i, i+1)
			return m.data, nil
		}
	}
	// Fast path: take whatever is already queued without arming the timer.
	if data, ok := e.takeUntil(src, tag); ok {
		return data, nil
	}
	t := e.armTimer()
	defer e.disarmTimer()
	for {
		// Registered after every take, so the wait's taken count is current
		// when the rank parks: a stale count would judge the wait ready for
		// ever. Once src has left, block finds either a message still to
		// take (all of src's sends are counted before its Leave) or
		// ErrDeserted.
		wake, err := j.block(e.rank, wait{kind: waitRecv, peer: src, tag: tag, taken: e.taken[src].Load()})
		if err != nil {
			return nil, err
		}
		select {
		case <-e.in.arrive:
		case <-t.C:
			return nil, j.timeOut(e.rank)
		case <-wake:
		}
		if data, ok := e.takeUntil(src, tag); ok {
			j.unblock(e.rank)
			return data, nil
		}
	}
}

// takeUntil takes src's queued messages in order until one carries tag,
// setting the others aside. It returns false once the queue is empty,
// leaving the inbox flagged so src's next push wakes this rank.
func (e *Endpoint) takeUntil(src, tag int) ([]byte, bool) {
	in := &e.in
	for {
		in.mu.Lock()
		q := &in.from[src]
		n := q.len()
		if n == 0 {
			in.waitFor = src
			in.mu.Unlock()
			return nil, false
		}
		m := q.pop()
		in.mu.Unlock()
		if n == mailboxCap {
			// src may be parked on its full queue.
			poke(e.job.eps[src].space)
		}
		e.job.pause()
		e.taken[src].Add(1)
		if m.tag == tag {
			return m.data, true
		}
		e.pending[src] = append(e.pending[src], m)
	}
}

// Barrier blocks until every rank has entered it.
func (e *Endpoint) Barrier() error {
	_, err := e.job.coll.join(e, contribution{})
	return err
}

// Allreduce combines the primary and pristine word vectors of all ranks.
func (e *Endpoint) Allreduce(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
	res, err := e.job.coll.join(e, contribution{
		kind: collAllreduce, prim: prim, prist: prist, op: op, isFloat: isFloat,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.prim, res.prist, nil
}

// Bcast distributes root's message; non-root ranks pass nil.
func (e *Endpoint) Bcast(root int, msg []byte) ([]byte, error) {
	if root < 0 || root >= e.job.size {
		return nil, fmt.Errorf("mpi: bcast root %d invalid", root)
	}
	isRoot := e.rank == root
	res, err := e.job.coll.join(e, contribution{
		kind: collBcast, bcast: msg, isRoot: isRoot,
	})
	if err != nil {
		return nil, err
	}
	return res.bcast, nil
}

// GetBuf returns a recycled wire buffer (nil when none is available). The
// VM's message layer uses this (through an optional interface) to keep
// steady-state traffic allocation-free.
func (e *Endpoint) GetBuf() []byte {
	select {
	case b := <-e.job.bufs:
		return b
	default:
		return nil
	}
}

// PutBuf returns a fully consumed wire buffer to the freelist. Only the
// sole consumer of a buffer may return it — recycling a buffer shared with
// any other reader would corrupt a future message.
func (e *Endpoint) PutBuf(b []byte) {
	select {
	case e.job.bufs <- b:
	default:
	}
}
