package mpi

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fpm"
	"repro/internal/ir"
)

func TestP2PSendRecv(t *testing.T) {
	j := NewJob(2, time.Second)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e0.Send(1, 7, []byte("hello")); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	got, err := e1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	wg.Wait()
}

func TestTagMatchingPreservesOrder(t *testing.T) {
	j := NewJob(2, time.Second)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	msgs := []struct {
		tag int
		s   string
	}{{1, "a1"}, {2, "b1"}, {1, "a2"}, {2, "b2"}}
	for _, m := range msgs {
		if err := e0.Send(1, m.tag, []byte(m.s)); err != nil {
			t.Fatal(err)
		}
	}
	// Receive tag 2 first: tag-1 messages must be set aside, order kept.
	for _, want := range []string{"b1", "b2"} {
		got, err := e1.Recv(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("tag2 got %q, want %q", got, want)
		}
	}
	for _, want := range []string{"a1", "a2"} {
		got, err := e1.Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("tag1 got %q, want %q", got, want)
		}
	}
}

func TestRecvUnblocksOnKill(t *testing.T) {
	j := NewJob(2, time.Minute)
	e1 := j.Endpoint(1)
	errCh := make(chan error, 1)
	go func() {
		_, err := e1.Recv(0, 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	j.Kill()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeserted) {
			t.Errorf("err = %v, want ErrDeserted", err)
		}
	case <-time.After(time.Second):
		t.Fatal("recv did not unblock")
	}
	j.Kill() // idempotent
	if _, err := e1.Recv(0, 0); !errors.Is(err, ErrDeserted) {
		t.Errorf("recv after Kill: err = %v, want ErrDeserted", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	j := NewJob(2, 20*time.Millisecond)
	e1 := j.Endpoint(1)
	if _, err := e1.Recv(0, 0); err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestInvalidRanks(t *testing.T) {
	j := NewJob(2, time.Second)
	e0 := j.Endpoint(0)
	if err := e0.Send(5, 0, nil); err == nil {
		t.Error("send to invalid rank accepted")
	}
	if _, err := e0.Recv(-1, 0); err == nil {
		t.Error("recv from invalid rank accepted")
	}
	if _, err := e0.Bcast(9, nil); err == nil {
		t.Error("bcast with invalid root accepted")
	}
}

func TestBarrierAllRanks(t *testing.T) {
	const n = 8
	j := NewJob(n, time.Second)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := j.Endpoint(r)
			for round := 0; round < 10; round++ {
				if err := e.Barrier(); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestAllreduceSumFloat(t *testing.T) {
	const n = 4
	j := NewJob(n, time.Second)
	var wg sync.WaitGroup
	results := make([][]uint64, n)
	prists := make([][]uint64, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := j.Endpoint(r)
			prim := []uint64{math.Float64bits(float64(r + 1))}
			// Rank 2's pristine contribution differs (its word was
			// contaminated locally).
			prist := []uint64{prim[0]}
			if r == 2 {
				prist[0] = math.Float64bits(10)
			}
			rp, rs, err := e.Allreduce(prim, prist, ir.ReduceSum, true)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = rp
			prists[r] = rs
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if got := math.Float64frombits(results[r][0]); got != 10 { // 1+2+3+4
			t.Errorf("rank %d primary sum = %v, want 10", r, got)
		}
		if got := math.Float64frombits(prists[r][0]); got != 17 { // 1+2+10+4
			t.Errorf("rank %d pristine sum = %v, want 17", r, got)
		}
	}
}

func TestAllreduceMinMaxInt(t *testing.T) {
	const n = 3
	j := NewJob(n, time.Second)
	run := func(op ir.ReduceOp) []int64 {
		var wg sync.WaitGroup
		out := make([]int64, n)
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				e := j.Endpoint(r)
				v := []uint64{uint64(int64(r*10 - 5))} // -5, 5, 15
				rp, _, err := e.Allreduce(v, v, op, false)
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				out[r] = int64(rp[0])
			}(r)
		}
		wg.Wait()
		return out
	}
	for _, v := range run(ir.ReduceMin) {
		if v != -5 {
			t.Errorf("min = %d, want -5", v)
		}
	}
	for _, v := range run(ir.ReduceMax) {
		if v != 15 {
			t.Errorf("max = %d, want 15", v)
		}
	}
	for _, v := range run(ir.ReduceSum) {
		if v != 15 { // -5+5+15
			t.Errorf("sum = %d, want 15", v)
		}
	}
}

func TestAllreduceCountMismatchFailsJob(t *testing.T) {
	j := NewJob(2, time.Second)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := j.Endpoint(r)
			count := 1 + r // mismatched lengths
			v := make([]uint64, count)
			_, _, errs[r] = e.Allreduce(v, v, ir.ReduceSum, false)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: mismatched allreduce succeeded", r)
		}
	}
}

func TestBcast(t *testing.T) {
	const n = 4
	j := NewJob(n, time.Second)
	payload := fpm.EncodeMessage([]uint64{42, 43}, []fpm.MsgRecord{{Displacement: 1, Pristine: 99}})
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := j.Endpoint(r)
			var msg []byte
			if r == 2 {
				msg = payload
			}
			out, err := e.Bcast(2, msg)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		pl, recs, err := fpm.DecodeMessage(results[r])
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if pl[0] != 42 || pl[1] != 43 || len(recs) != 1 || recs[0].Pristine != 99 {
			t.Errorf("rank %d got payload %v recs %v", r, pl, recs)
		}
	}
}

func TestMixedCollectiveKindsFailJob(t *testing.T) {
	j := NewJob(2, time.Second)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = j.Endpoint(0).Barrier()
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = j.Endpoint(1).Bcast(1, []byte{1})
	}()
	wg.Wait()
	if errs[0] == nil || errs[1] == nil {
		t.Errorf("mixed collectives succeeded: %v", errs)
	}
}

func TestSendManyMessagesNoDeadlock(t *testing.T) {
	// More messages than the channel buffer, consumed concurrently.
	j := NewJob(2, 5*time.Second)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	const total = 5000
	go func() {
		for i := 0; i < total; i++ {
			if err := e0.Send(1, 0, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		m, err := e1.Recv(0, 0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, m[0])
		}
	}
}
