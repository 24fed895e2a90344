package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/mpi"
	"repro/internal/vm"
)

// Rank-level golden exit. The whole-run exit (exit.go) needs every rank
// and the world golden at one cut; most faults, though, contaminate one
// rank or a few, while the others are back in exactly the golden state and
// only re-derive the golden run's values. Such a rank's execution from the
// cut is a function of its state, which is golden, and of what the job
// answers its MPI calls. So a rank that votes yes at a cut that does not end
// the run becomes a ghost: it stays paused inside its quiesce hook and
// replays its golden traffic through its real endpoint — the golden bytes
// sent, the golden allreduce contributions made — and checks every message
// and collective result the job answers against the golden log, byte for
// byte, voting yes at each later cut once it has completed that cut's
// collective. As long as every answer matches, the paused VM would make
// exactly those calls; when the log runs out, the rank ends there and takes
// the golden run's final values, and peers waiting on it are deserted as
// they would be by the rank finishing.
//
// The first answer that differs from the log, and any failure of a call
// (abort, deadlock, desertion, timeout), is a surprise: the ghost resumes.
// The paused VM continues from the cut, and its link serves the calls the
// ghost already made from the log — dropping the sends, handing back the
// golden messages and results — until it reaches the call the ghost was
// surprised at, whose answer it then gets. From there it runs live. Its
// state at every step is the one the rank would have had without ghosting,
// so its result is the full execution's, byte for byte, and where the call
// failed it traps exactly where a rank parked there would. The link checks
// every call of the catch-up against the log as it goes, and a call that
// differs panics with a divergence, which the runner rethrows: a broken
// invariant, never a result.

// opKind is the kind of one logged MPI call.
type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opAllreduce
	opBarrier
	opBcast
)

func (k opKind) String() string {
	return [...]string{"send", "recv", "allreduce", "barrier", "bcast"}[k]
}

// trafficOp is one MPI call of a fault-free rank: what the VM asked for and
// what the job answered.
type trafficOp struct {
	kind    opKind
	isFloat bool
	reduce  ir.ReduceOp
	// peer is a send's destination, a receive's source, a broadcast's root.
	peer, tag int
	// off and n place the call's payload in its rankLog: in bytes, the n
	// wire bytes sent or received, or the broadcast message; in words, an
	// allreduce's contribution and result, four vectors of n words.
	off, n int
}

func (o *trafficOp) String() string {
	return fmt.Sprintf("%v peer %d tag %d", o.kind, o.peer, o.tag)
}

// rankLog is one rank's traffic: its calls in order, and their payloads
// back to back.
type rankLog struct {
	ops   []trafficOp
	bytes []byte
	words []uint64
}

// data returns o's wire bytes.
func (t *rankLog) data(o *trafficOp) []byte { return t.bytes[o.off : o.off+o.n : o.off+o.n] }

// vec returns allreduce o's i-th vector: 0 and 1 the contribution's
// primary and pristine words, 2 and 3 the result's.
func (t *rankLog) vec(o *trafficOp, i int) []uint64 {
	at := o.off + i*o.n
	return t.words[at : at+o.n : at+o.n]
}

func (t *rankLog) addBytes(o trafficOp, b []byte) {
	o.off, o.n = len(t.bytes), len(b)
	t.bytes = append(t.bytes, b...)
	t.ops = append(t.ops, o)
}

func (t *rankLog) addWords(o trafficOp, vecs ...[]uint64) {
	o.off, o.n = len(t.words), len(vecs[0])
	for _, v := range vecs {
		t.words = append(t.words, v...)
	}
	t.ops = append(t.ops, o)
}

// Traffic is a fault-free run's MPI traffic, rank by rank. The capture run
// records it; it is immutable afterwards and shared by every run whose Tail
// carries it. Nothing hands a slice of it to a peer or to a wire-buffer
// pool: what leaves the log is a copy.
type Traffic []rankLog

// Digest hashes every call of the log, for tests that prove it unchanged.
func (t Traffic) Digest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(x uint64) {
		for i := range w {
			w[i] = byte(x >> (8 * i))
		}
		h.Write(w[:])
	}
	for _, rl := range t {
		word(uint64(len(rl.ops)))
		for _, o := range rl.ops {
			for _, x := range []int{int(o.kind), int(o.reduce), o.peer, o.tag, o.off, o.n} {
				word(uint64(x))
			}
			if o.isFloat {
				word(1)
			}
		}
		word(uint64(len(rl.bytes)))
		h.Write(rl.bytes)
		for _, x := range rl.words {
			word(x)
		}
	}
	return h.Sum64()
}

// ghostExits and ghostResumes count, process-wide, the ranks that ended
// replaying golden traffic and the ghosts that resumed. The increments are
// on the cold path, like goldenExits.
var ghostExits, ghostResumes atomic.Uint64

// GhostExits returns the process-wide count of ranks that ended at the end
// of their golden log, in runs that did not end at a golden-equal cut.
func GhostExits() uint64 { return ghostExits.Load() }

// GhostResumes returns the process-wide count of ghosts that resumed.
func GhostResumes() uint64 { return ghostResumes.Load() }

// ghost is rank h.rank's replay of its golden traffic from cut i, where it
// voted yes and the cut did not end the run. It returns true when the rank
// ends — at the end of its log, or at a later cut that ends the run — and
// false when it resumes, with its link set to catch the VM up.
func (h *rankCut) ghost(i int) bool {
	z, l := h.vote, h.link
	if !z.aborts.hold(h.rank) {
		return false
	}
	log := &z.traffic[h.rank]
	l.golden = log
	from := z.cuts[i].ops[h.rank]
	j := i + 1
	for k := from; ; k++ {
		for ; j < len(z.cuts) && z.cuts[j].ops[h.rank] <= k; j++ {
			h.next = j + 1
			if z.vote(j, true) {
				return true
			}
		}
		if k == len(log.ops) {
			// A rank ends only in a live job, as a run exits only when no
			// rank crashed. In a dead one it resumes, to meet the abort
			// where its VM polls for it, as it would have executing.
			if z.aborts.release(h.rank) {
				return h.resume(log.ops[from:k])
			}
			h.ended = true
			ghostExits.Add(1)
			return true
		}
		if !l.replay(&log.ops[k]) {
			return h.resume(log.ops[from:k])
		}
	}
}

// resume sets the rank's link to serve the VM the calls the ghost made
// since its cut, then the one it was surprised at, if any, and returns
// false: the hook's answer that lets the paused VM continue.
func (h *rankCut) resume(replayed []trafficOp) bool {
	h.link.catching, h.link.replayed = true, replayed
	h.resumes++
	ghostResumes.Add(1)
	return false
}

// rankLink is a rank's MPI endpoint in every run: the job's endpoint, seen
// through a layer that records the traffic in a capture run and serves a
// resumed ghost's catch-up from the log.
type rankLink struct {
	ep    *mpi.Endpoint
	rank  int
	abort *abortFlags
	// log receives every call the rank makes, in a capture run only.
	log *rankLog
	// golden is the rank's golden log while it is a ghost or catching up.
	// catching marks a VM re-executing from its cut after its ghost
	// resumed: its calls are served from replayed, then pend, and only then
	// go to ep again.
	golden   *rankLog
	catching bool
	replayed []trafficOp
	pend     surprise
	// prim and prist are scratch for the allreduce vectors a ghost
	// contributes and a catch-up hands back.
	prim, prist []uint64
}

// surprise is the call a ghost resumed at and the job's answer to it.
type surprise struct {
	op          *trafficOp
	data        []byte
	prim, prist []uint64
	err         error
}

// divergence is the panic of a catch-up whose VM does not make the call the
// log holds. The VM restarted from a golden-equal state and was answered as
// the golden run was, so it must: a divergence is a broken invariant.
type divergence struct{ msg string }

func (d *divergence) Error() string { return d.msg }

var (
	_ vm.MPIEndpoint = (*rankLink)(nil)
	_ vm.WireBufs    = (*rankLink)(nil)
)

func (l *rankLink) Rank() int       { return l.rank }
func (l *rankLink) Size() int       { return l.ep.Size() }
func (l *rankLink) GetBuf() []byte  { return l.ep.GetBuf() }
func (l *rankLink) PutBuf(b []byte) { l.ep.PutBuf(b) }
func (l *rankLink) Abort(code int64) {
	if l.catching {
		panic(&divergence{fmt.Sprintf("core: rank %d catch-up: MPI_Abort, which its golden log does not hold", l.rank)})
	}
	l.abort.kill()
}

func (l *rankLink) Send(dst, tag int, msg []byte) error {
	if l.catching {
		o, pending := l.served(opSend, dst, tag)
		l.check(o, bytes.Equal(msg, l.golden.data(o)), "message")
		if !pending {
			// The ghost delivered it; the buffer is the VM's own.
			l.ep.PutBuf(msg)
			return nil
		}
		return l.live().err
	}
	if l.log != nil {
		// Copied before sending: the receiver recycles the buffer.
		l.log.addBytes(trafficOp{kind: opSend, peer: dst, tag: tag}, msg)
	}
	return l.ep.Send(dst, tag, msg)
}

func (l *rankLink) Recv(src, tag int) ([]byte, error) {
	if l.catching {
		o, pending := l.served(opRecv, src, tag)
		if !pending {
			// A copy: the VM recycles what it receives.
			return append(l.ep.GetBuf()[:0], l.golden.data(o)...), nil
		}
		s := l.live()
		return s.data, s.err
	}
	buf, err := l.ep.Recv(src, tag)
	if l.log != nil && err == nil {
		l.log.addBytes(trafficOp{kind: opRecv, peer: src, tag: tag}, buf)
	}
	return buf, err
}

func (l *rankLink) Allreduce(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
	if l.catching {
		o, pending := l.served(opAllreduce, 0, 0)
		g := l.golden
		l.check(o, o.reduce == op && o.isFloat == isFloat &&
			slices.Equal(prim, g.vec(o, 0)) && slices.Equal(prist, g.vec(o, 1)), "contribution")
		if !pending {
			l.prim = append(l.prim[:0], g.vec(o, 2)...)
			l.prist = append(l.prist[:0], g.vec(o, 3)...)
			return l.prim, l.prist, nil
		}
		s := l.live()
		return s.prim, s.prist, s.err
	}
	rp, rs, err := l.ep.Allreduce(prim, prist, op, isFloat)
	if l.log != nil && err == nil {
		l.log.addWords(trafficOp{kind: opAllreduce, reduce: op, isFloat: isFloat}, prim, prist, rp, rs)
	}
	return rp, rs, err
}

func (l *rankLink) Barrier() error {
	if l.catching {
		if _, pending := l.served(opBarrier, 0, 0); !pending {
			return nil
		}
		return l.live().err
	}
	err := l.ep.Barrier()
	if l.log != nil && err == nil {
		l.log.addBytes(trafficOp{kind: opBarrier}, nil)
	}
	return err
}

func (l *rankLink) Bcast(root int, msg []byte) ([]byte, error) {
	if l.catching {
		o, pending := l.served(opBcast, root, 0)
		l.check(o, root != l.rank || bytes.Equal(msg, l.golden.data(o)), "broadcast message")
		if !pending {
			return slices.Clone(l.golden.data(o)), nil
		}
		s := l.live()
		return s.data, s.err
	}
	out, err := l.ep.Bcast(root, msg)
	if l.log != nil && err == nil {
		l.log.addBytes(trafficOp{kind: opBcast, peer: root}, out)
	}
	return out, err
}

// replay makes the logged call o on the job's endpoint for a ghost — the
// golden bytes or contribution, copied out of the log — and reports whether
// the job answered as it answered the golden run. When it did not, or the
// call failed, the answer is kept as the call the catch-up resumes at.
func (l *rankLink) replay(o *trafficOp) bool {
	g, s := l.golden, surprise{op: o}
	switch o.kind {
	case opSend:
		if s.err = l.ep.Send(o.peer, o.tag, append(l.ep.GetBuf()[:0], g.data(o)...)); s.err == nil {
			return true
		}
	case opRecv:
		buf, err := l.ep.Recv(o.peer, o.tag)
		if err == nil && bytes.Equal(buf, g.data(o)) {
			l.ep.PutBuf(buf)
			return true
		}
		s.data, s.err = buf, err
	case opAllreduce:
		l.prim = append(l.prim[:0], g.vec(o, 0)...)
		l.prist = append(l.prist[:0], g.vec(o, 1)...)
		rp, rs, err := l.ep.Allreduce(l.prim, l.prist, o.reduce, o.isFloat)
		if err == nil && slices.Equal(rp, g.vec(o, 2)) && slices.Equal(rs, g.vec(o, 3)) {
			return true
		}
		s.prim, s.prist, s.err = slices.Clone(rp), slices.Clone(rs), err
	case opBarrier:
		if s.err = l.ep.Barrier(); s.err == nil {
			return true
		}
	case opBcast:
		var msg []byte
		if o.peer == l.rank {
			msg = slices.Clone(g.data(o))
		}
		out, err := l.ep.Bcast(o.peer, msg)
		if err == nil && bytes.Equal(out, g.data(o)) {
			return true
		}
		s.data, s.err = out, err
	}
	l.pend = s
	return false
}

// served returns the logged call a catching-up VM's call must match — the
// next replayed one, or the pending one — and checks kind, peer and tag.
func (l *rankLink) served(kind opKind, peer, tag int) (o *trafficOp, pending bool) {
	if len(l.replayed) > 0 {
		o, l.replayed = &l.replayed[0], l.replayed[1:]
	} else if o, pending = l.pend.op, true; o == nil {
		panic(&divergence{fmt.Sprintf("core: rank %d catch-up: %v past the end of its golden log", l.rank, kind)})
	}
	if o.kind != kind || o.peer != peer || o.tag != tag {
		l.check(o, false, fmt.Sprintf("call (%v peer %d tag %d)", kind, peer, tag))
	}
	return o, pending
}

// check panics with a divergence unless the catch-up's call matches o.
func (l *rankLink) check(o *trafficOp, ok bool, what string) {
	if !ok {
		panic(&divergence{fmt.Sprintf("core: rank %d catch-up: %s differs from the golden log's %v", l.rank, what, o)})
	}
}

// live ends the catch-up at its pending call, whose answer it returns: the
// VM runs live from here, and its abort flag is raised if the job died
// meanwhile.
func (l *rankLink) live() surprise {
	s := l.pend
	l.catching, l.golden, l.replayed, l.pend = false, nil, nil, surprise{}
	l.abort.release(l.rank)
	return s
}

// abortFlags are a run's per-rank abort flags, the ones its VMs poll. kill
// takes the job down and raises every flag but the held ones: a ghost holds
// its flag until its catch-up reaches the call it was surprised at, where
// a rank that never ghosted would have been parked when the job died, so
// its VM traps there, with that call's error, and not at an earlier poll.
type abortFlags struct {
	job    *mpi.Job
	flags  []vm.AbortFlag
	mu     sync.Mutex
	killed bool
	held   []bool
}

func (a *abortFlags) reset(job *mpi.Job) {
	a.job, a.killed = job, false
	for r := range a.flags {
		a.flags[r].Lower()
	}
	clear(a.held)
}

// kill aborts the job and raises every flag not held. Idempotent.
func (a *abortFlags) kill() {
	a.job.Kill()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.killed = true
	for r := range a.flags {
		if !a.held[r] {
			a.flags[r].Raise()
		}
	}
}

// hold keeps rank r's flag low from now on; false when the job is already
// dead, and r must not ghost.
func (a *abortFlags) hold(r int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.killed {
		return false
	}
	a.held[r] = true
	return true
}

// release lets rank r's flag follow the job again, and reports whether
// the job is dead.
func (a *abortFlags) release(r int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.held[r] = false
	if a.killed {
		a.flags[r].Raise()
	}
	return a.killed
}
