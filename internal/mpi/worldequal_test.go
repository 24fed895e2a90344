package mpi

import (
	"testing"
	"time"
)

// rewriteMail drains the mail queue dst<-src, lets edit change its
// contents, and queues the result again in order.
func rewriteMail(j *Job, dst, src int, edit func([]message) []message) {
	ch := j.mail[dst][src]
	var msgs []message
	for len(ch) > 0 {
		msgs = append(msgs, <-ch)
	}
	for _, m := range edit(msgs) {
		ch <- m
	}
}

// TestWorldEqualRejectsEachDifference pins the world comparison of the
// golden-equivalence early exit: a world equals its own capture, and an
// extra, a missing or a one-byte-different message — in a mail queue or in
// a pending buffer — makes it differ. Comparing leaves the world as it was.
func TestWorldEqualRejectsEachDifference(t *testing.T) {
	j := NewJob(2, 5*time.Second)
	e0, e1 := j.Endpoint(0), j.Endpoint(1)
	// Rank 1's pending buffer holds tag 9 and its mail queue from rank 0
	// holds tags 7 and 8.
	for _, m := range []struct {
		tag  int
		body string
	}{{9, "pending-nine"}, {6, "taken-six"}, {7, "queued-seven"}, {8, "queued-eight"}} {
		if err := e0.Send(1, m.tag, []byte(m.body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e1.Recv(0, 6); err != nil {
		t.Fatal(err)
	}
	snap := j.SnapshotWorld(nil)
	if !j.WorldEqual(snap) {
		t.Fatal("a world differs from its own capture")
	}

	pending := func(edit func([]message) []message) func() {
		return func() { j.eps[1].pending[0] = edit(j.eps[1].pending[0]) }
	}
	mail := func(edit func([]message) []message) func() {
		return func() { rewriteMail(j, 1, 0, edit) }
	}
	extra := func(ms []message) []message { return append(ms, message{tag: 3, data: []byte("x")}) }
	missing := func(ms []message) []message { return ms[:len(ms)-1] }
	oneByte := func(ms []message) []message {
		data := append([]byte(nil), ms[0].data...)
		data[len(data)/2] ^= 1
		return append([]message{{tag: ms[0].tag, data: data}}, ms[1:]...)
	}
	for _, c := range []struct {
		name   string
		mutate func()
	}{
		{"extra message in mail", mail(extra)},
		{"missing message in mail", mail(missing)},
		{"one byte different in mail", mail(oneByte)},
		{"other tag in mail", mail(func(ms []message) []message { ms[1].tag++; return ms })},
		{"extra message in pending", pending(extra)},
		{"missing message in pending", pending(missing)},
		{"one byte different in pending", pending(oneByte)},
		{"message sent the other way", func() {
			if err := e1.Send(0, 1, []byte("back")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c.mutate()
		if j.WorldEqual(snap) {
			t.Errorf("%s: world still equals the capture", c.name)
		}
		j.RestoreWorld(snap)
		if !j.WorldEqual(snap) {
			t.Fatalf("%s: restored world differs from the capture", c.name)
		}
	}

	// The comparisons left every queue in order.
	for _, want := range []struct {
		tag  int
		body string
	}{{8, "queued-eight"}, {7, "queued-seven"}, {9, "pending-nine"}} {
		b, err := e1.Recv(0, want.tag)
		if err != nil || string(b) != want.body {
			t.Fatalf("recv tag %d = %q, %v; want %q", want.tag, b, err, want.body)
		}
	}
	if j.WorldEqual(snap) {
		t.Error("a drained world still equals a capture with messages in flight")
	}
	if j.WorldEqual(NewJob(3, time.Second).SnapshotWorld(nil)) {
		t.Error("a world equals the capture of a job of another size")
	}
}
