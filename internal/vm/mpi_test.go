package vm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fpm"
	"repro/internal/ir"
)

// fakeEndpoint is a single-process MPI endpoint with scripted behavior,
// for exercising the VM's MPI intrinsic paths without a real job.
type fakeEndpoint struct {
	rank, size int
	sent       []struct {
		dst, tag int
		msg      []byte
	}
	recvQueue [][]byte
	recvErr   error
	sendErr   error
	bcastMsg  []byte

	allreduceFn func(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error)
}

func (f *fakeEndpoint) Rank() int { return f.rank }
func (f *fakeEndpoint) Size() int { return f.size }

func (f *fakeEndpoint) Send(dst, tag int, msg []byte) error {
	if f.sendErr != nil {
		return f.sendErr
	}
	f.sent = append(f.sent, struct {
		dst, tag int
		msg      []byte
	}{dst, tag, msg})
	return nil
}

func (f *fakeEndpoint) Recv(src, tag int) ([]byte, error) {
	if f.recvErr != nil {
		return nil, f.recvErr
	}
	if len(f.recvQueue) == 0 {
		return nil, errors.New("fake: no message")
	}
	m := f.recvQueue[0]
	f.recvQueue = f.recvQueue[1:]
	return m, nil
}

func (f *fakeEndpoint) Allreduce(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
	if f.allreduceFn != nil {
		return f.allreduceFn(prim, prist, op, isFloat)
	}
	return prim, prist, nil
}

func (f *fakeEndpoint) Barrier() error { return nil }

func (f *fakeEndpoint) Bcast(root int, msg []byte) ([]byte, error) {
	if msg != nil {
		return msg, nil
	}
	return f.bcastMsg, nil
}

func TestMPISendCollectsContamination(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 4)
	b.GlobalInit("buf", []uint64{10, 20, 30, 40})
	f := b.Func("main", 0, 0)
	f.MPISend(ir.ImmI(buf), ir.ImmI(4), ir.ImmI(1), ir.ImmI(7))
	f.Ret()
	ep := &fakeEndpoint{rank: 0, size: 2}
	v := New(b.MustBuild(), Config{MPI: ep})
	// Pre-contaminate word 2 of the buffer.
	v.Table().Record(int64(buf)+2, 99)
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 1 || ep.sent[0].dst != 1 || ep.sent[0].tag != 7 {
		t.Fatalf("sent = %+v", ep.sent)
	}
	payload, recs, err := fpm.DecodeMessage(ep.sent[0].msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 4 || payload[2] != 30 {
		t.Errorf("payload = %v", payload)
	}
	if len(recs) != 1 || recs[0].Displacement != 2 || recs[0].Pristine != 99 {
		t.Errorf("records = %v", recs)
	}
}

func TestMPIRecvInstallsContamination(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 3)
	f := b.Func("main", 0, 0)
	f.MPIRecv(ir.ImmI(buf), ir.ImmI(3), ir.ImmI(1), ir.ImmI(0))
	f.OutputF(ir.R(f.Ld(ir.ImmI(buf), ir.ImmI(1))))
	f.Ret()
	msg := fpm.EncodeMessage(
		[]uint64{fbits(1), fbits(2), fbits(3)},
		[]fpm.MsgRecord{{Displacement: 1, Pristine: fbits(9)}},
	)
	ep := &fakeEndpoint{rank: 0, size: 2, recvQueue: [][]byte{msg}}
	v := New(b.MustBuild(), Config{MPI: ep})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Outputs()[0] != 2 {
		t.Errorf("received value = %v", v.Outputs()[0])
	}
	pv, ok := v.Table().Pristine(int64(buf) + 1)
	if !ok || math.Float64frombits(pv) != 9 {
		t.Errorf("contamination not installed: %v %v", pv, ok)
	}
}

func TestMPIRecvSizeMismatchTraps(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 3)
	f := b.Func("main", 0, 0)
	f.MPIRecv(ir.ImmI(buf), ir.ImmI(3), ir.ImmI(1), ir.ImmI(0))
	f.Ret()
	msg := fpm.EncodeMessage([]uint64{1}, nil) // 1 word, expected 3
	ep := &fakeEndpoint{rank: 0, size: 2, recvQueue: [][]byte{msg}}
	v := New(b.MustBuild(), Config{MPI: ep})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapPeerFailure {
		t.Errorf("err = %v, want peer-failure trap", err)
	}
}

func TestMPIRecvMalformedMessageTraps(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 1)
	f := b.Func("main", 0, 0)
	f.MPIRecv(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(1), ir.ImmI(0))
	f.Ret()
	ep := &fakeEndpoint{rank: 0, size: 2, recvQueue: [][]byte{{1, 2, 3}}}
	v := New(b.MustBuild(), Config{MPI: ep})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapInvalid {
		t.Errorf("err = %v, want invalid trap", err)
	}
}

func TestMPISendFailurePropagates(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 1)
	f := b.Func("main", 0, 0)
	f.MPISend(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(1), ir.ImmI(0))
	f.Ret()
	ep := &fakeEndpoint{rank: 0, size: 2, sendErr: errors.New("job aborted")}
	v := New(b.MustBuild(), Config{MPI: ep})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapPeerFailure {
		t.Errorf("err = %v, want peer-failure trap", err)
	}
}

func TestMPISendInvalidRankTraps(t *testing.T) {
	b := ir.NewBuilder()
	buf := b.Global("buf", 1)
	f := b.Func("main", 0, 0)
	f.MPISend(ir.ImmI(buf), ir.ImmI(1), ir.ImmI(9), ir.ImmI(0))
	f.Ret()
	ep := &fakeEndpoint{rank: 0, size: 2}
	v := New(b.MustBuild(), Config{MPI: ep})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapInvalid {
		t.Errorf("err = %v, want invalid trap", err)
	}
}

func TestMPIAllreduceTracksPristine(t *testing.T) {
	b := ir.NewBuilder()
	send := b.Global("send", 1)
	recv := b.Global("recv", 1)
	b.GlobalInitF("send", []float64{5})
	f := b.Func("main", 0, 0)
	f.MPIAllreduceF(ir.ImmI(send), ir.ImmI(recv), ir.ImmI(1), ir.ReduceSum)
	f.Ret()
	// The endpoint returns diverging primary/pristine sums (some other
	// rank contributed corrupted data).
	ep := &fakeEndpoint{rank: 0, size: 2,
		allreduceFn: func(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
			return []uint64{fbits(12)}, []uint64{fbits(10)}, nil
		}}
	v := New(b.MustBuild(), Config{MPI: ep})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	w, _ := v.Mem().Read(int64(recv))
	if math.Float64frombits(w) != 12 {
		t.Errorf("recv = %v, want 12 (primary)", math.Float64frombits(w))
	}
	pv, ok := v.Table().Pristine(int64(recv))
	if !ok || math.Float64frombits(pv) != 10 {
		t.Errorf("pristine = %v %v, want 10", math.Float64frombits(pv), ok)
	}
}

func TestMPIAllreduceSizeMismatchTraps(t *testing.T) {
	b := ir.NewBuilder()
	send := b.Global("send", 1)
	recv := b.Global("recv", 1)
	f := b.Func("main", 0, 0)
	f.MPIAllreduceF(ir.ImmI(send), ir.ImmI(recv), ir.ImmI(1), ir.ReduceSum)
	f.Ret()
	ep := &fakeEndpoint{rank: 0, size: 2,
		allreduceFn: func(prim, prist []uint64, op ir.ReduceOp, isFloat bool) ([]uint64, []uint64, error) {
			return []uint64{1, 2, 3}, []uint64{1, 2, 3}, nil
		}}
	v := New(b.MustBuild(), Config{MPI: ep})
	err := v.Run()
	tr := AsTrap(err)
	if tr == nil || tr.Kind != TrapPeerFailure {
		t.Errorf("err = %v, want peer-failure trap", err)
	}
}

func TestMPIBcastRootAndLeaf(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder()
		buf := b.Global("buf", 2)
		b.GlobalInit("buf", []uint64{7, 8})
		f := b.Func("main", 0, 0)
		f.MPIBcast(ir.ImmI(buf), ir.ImmI(2), ir.ImmI(0))
		f.OutputI(ir.R(f.Ld(ir.ImmI(buf), ir.ImmI(0))))
		f.Ret()
		return b.MustBuild()
	}
	// Root: broadcasts its own contents; they come back unchanged.
	root := New(build(), Config{MPI: &fakeEndpoint{rank: 0, size: 2}})
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if root.Outputs()[0] != 7 {
		t.Errorf("root buf = %v", root.Outputs()[0])
	}
	// Leaf: receives the root's (different) contents plus contamination.
	msg := fpm.EncodeMessage([]uint64{100, 200}, []fpm.MsgRecord{{Displacement: 0, Pristine: 42}})
	leaf := New(build(), Config{MPI: &fakeEndpoint{rank: 1, size: 2, bcastMsg: msg}})
	if err := leaf.Run(); err != nil {
		t.Fatal(err)
	}
	if leaf.Outputs()[0] != 100 {
		t.Errorf("leaf buf = %v", leaf.Outputs()[0])
	}
	if _, ok := leaf.Table().Pristine(2); !ok {
		// buf base is 1; displacement 0 -> address 1.
		if _, ok := leaf.Table().Pristine(1); !ok {
			t.Error("bcast contamination not installed")
		}
	}
}
