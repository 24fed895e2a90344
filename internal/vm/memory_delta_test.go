package vm

import (
	"fmt"
	"testing"
)

// snapWords reconstructs the full word array a snapshot denotes: lo from
// address 1, hi up to size, the gap pages where they lie, zero everywhere
// else (the Memory invariant).
func snapWords(s *MemSnap) []uint64 {
	w := make([]uint64, s.size)
	for k, p := range s.gap {
		copy(w[k<<pageShift:], p[:])
	}
	copy(w[1:], s.lo)
	copy(w[s.size-int64(len(s.hi)):], s.hi)
	return w
}

// checkWords asserts every word of the memory reads as want has it.
func checkWords(t *testing.T, m *Memory, want []uint64, what string) {
	t.Helper()
	if m.Size() != int64(len(want)) {
		t.Fatalf("size %d %s, want %d", m.Size(), what, len(want))
	}
	for a := int64(1); a < m.Size(); a++ {
		if got, _ := m.Read(a); got != want[a] {
			t.Fatalf("word %d = %#x %s, want %#x", a, got, what, want[a])
		}
	}
}

// checkEqualsSnap asserts the memory is word-for-word and
// scalar-for-scalar the snapshotted state, with a clean dirty bitmap and
// s installed as the delta base.
func checkEqualsSnap(t *testing.T, m *Memory, s *MemSnap) {
	t.Helper()
	checkWords(t, m, snapWords(s), "after restore")
	if m.globalEnd != s.globalEnd || m.brk != s.brk || m.sp != s.sp ||
		len(m.lo) != len(s.lo) || len(m.stack) != len(s.hi) || len(m.gap) != len(s.gap) {
		t.Fatalf("scalars (%d,%d,%d) extents (%d,%d,%d) after restore, want (%d,%d,%d) (%d,%d,%d)",
			m.globalEnd, m.brk, m.sp, len(m.lo), len(m.stack), len(m.gap),
			s.globalEnd, s.brk, s.sp, len(s.lo), len(s.hi), len(s.gap))
	}
	for i, w := range m.dirty {
		if w != 0 {
			t.Fatalf("dirty bitmap word %d = %#x after restore, want clean", i, w)
		}
	}
	if m.base != s || m.baseGen != s.gen {
		t.Fatalf("restore did not re-base on the snapshot")
	}
}

// TestDeltaRestoreAboveWatermark forks writes above the golden low
// extent — into the zero gap the snapshot never copied, and into
// stack frames deeper than the snapshot ever pushed — and checks the
// delta restore re-zeroes them.
func TestDeltaRestoreAboveWatermark(t *testing.T) {
	m := NewMemory(4096, 64)
	for a := int64(1); a < 65; a++ {
		m.Write(a, uint64(a)*3)
	}
	s := m.Snapshot(nil)
	if len(s.lo) != 64 || len(s.hi) != 0 || s.gap != nil {
		t.Fatalf("unexpected golden extents lo=%d hi=%d gap=%d", len(s.lo), len(s.hi), len(s.gap))
	}
	// Wild write far above the golden low extent.
	if !m.Write(3000, 7) {
		t.Fatal("write trapped")
	}
	// Ordinary dirt inside the copied segment.
	m.Write(30, 9)
	// Stack dirt below the golden stack extent.
	fb, ok := m.PushFrame(32)
	if !ok {
		t.Fatal("push trapped")
	}
	m.Write(fb+1, 11)
	m.PopFrame(32)
	st := m.RestoreSnap(s)
	if !st.Delta {
		t.Fatalf("expected delta restore, got %+v", st)
	}
	if st.DirtyBlocks == 0 || st.DirtyBlocks >= st.TotalBlocks {
		t.Fatalf("delta restore touched %d of %d blocks", st.DirtyBlocks, st.TotalBlocks)
	}
	checkEqualsSnap(t, m, s)
}

// TestDeltaRestoreWatermarkShrink runs two successive forks off one
// snapshot where the second dirties far less than the first: the live
// extents shrink back between forks and the second restore must pay
// only for the second fork's dirt.
func TestDeltaRestoreWatermarkShrink(t *testing.T) {
	m := NewMemory(4096, 64)
	m.Write(1, 42)
	s := m.Snapshot(nil)
	// Fork 1: wide — long heap run plus a deep frame.
	if _, ok := m.Alloc(512); !ok {
		t.Fatal("alloc trapped")
	}
	for a := int64(65); a < 577; a += 7 {
		m.Write(a, uint64(a))
	}
	fb, ok := m.PushFrame(256)
	if !ok {
		t.Fatal("push trapped")
	}
	m.Write(fb, 5)
	st := m.RestoreSnap(s)
	if !st.Delta {
		t.Fatalf("expected delta restore, got %+v", st)
	}
	wide := st.DirtyBlocks
	checkEqualsSnap(t, m, s)
	// Fork 2: narrow — a single word next to the golden extent.
	m.Write(2, 3)
	st = m.RestoreSnap(s)
	if !st.Delta {
		t.Fatalf("expected delta restore, got %+v", st)
	}
	if st.DirtyBlocks != 1 {
		t.Fatalf("narrow fork restored %d blocks, want 1 (wide fork took %d)", st.DirtyBlocks, wide)
	}
	if st.DirtyBlocks >= wide {
		t.Fatalf("extent shrink not reflected: narrow %d >= wide %d blocks", st.DirtyBlocks, wide)
	}
	checkEqualsSnap(t, m, s)
}

// TestDeltaRestoreZeroWriteFork checks that restoring with nothing
// dirtied — immediately after Snapshot, and again immediately after a
// restore — is a no-op with zero-cost stats.
func TestDeltaRestoreZeroWriteFork(t *testing.T) {
	m := NewMemory(4096, 64)
	for a := int64(1); a < 300; a++ {
		m.Write(a, uint64(a)^0x9e)
	}
	s := m.Snapshot(nil)
	for round := 0; round < 2; round++ {
		st := m.RestoreSnap(s)
		if !st.Delta || st.DirtyBlocks != 0 || st.Bytes != 0 {
			t.Fatalf("round %d: zero-write restore cost %+v, want free delta", round, st)
		}
		checkEqualsSnap(t, m, s)
	}
}

// TestDeltaRestoreChain snapshots twice with dirt in between and moves
// the memory back and forth along the chain.
func TestDeltaRestoreChain(t *testing.T) {
	m := NewMemory(4096, 64)
	m.Write(5, 50)
	s1 := m.Snapshot(nil)
	m.Write(5, 51)
	m.Write(700, 70)
	s2 := m.Snapshot(nil)
	if s2.prev != s1 {
		t.Fatal("second snapshot did not chain to the first")
	}
	m.Write(9, 90)
	// Down the chain: base is s2, target s1; union must cover the live
	// dirt and the s1→s2 hop.
	st := m.RestoreSnap(s1)
	if !st.Delta {
		t.Fatalf("expected delta restore down the chain, got %+v", st)
	}
	checkEqualsSnap(t, m, s1)
	if v, _ := m.Read(700); v != 0 {
		t.Fatalf("word 700 = %d after rewind to s1, want 0", v)
	}
	// Back up: base is s1, target s2.
	st = m.RestoreSnap(s2)
	if !st.Delta {
		t.Fatalf("expected delta restore up the chain, got %+v", st)
	}
	checkEqualsSnap(t, m, s2)
	if v, _ := m.Read(700); v != 70 {
		t.Fatalf("word 700 = %d after restore to s2, want 70", v)
	}
}

// TestFullCopyFallbacks checks the paths that must refuse the delta: a
// dropped base, a base whose snapshot was recaptured, and a base
// invalidated by Reset.
func TestFullCopyFallbacks(t *testing.T) {
	m := NewMemory(4096, 64)
	m.Write(3, 33)
	s := m.Snapshot(nil)
	m.Write(3, 44)

	m.base, m.baseGen = nil, 0
	st := m.RestoreSnap(s)
	if st.Delta {
		t.Fatalf("restore took the delta path without a base: %+v", st)
	}
	checkEqualsSnap(t, m, s)

	m.Write(3, 66)
	m.baseGen-- // what recapturing the pooled base snapshot elsewhere looks like
	st = m.RestoreSnap(s)
	if st.Delta {
		t.Fatalf("restore trusted a base of another generation: %+v", st)
	}
	checkEqualsSnap(t, m, s)

	m.Reset(4096, 64)
	m.Write(3, 55)
	st = m.RestoreSnap(s)
	if st.Delta {
		t.Fatalf("restore trusted a base across Reset: %+v", st)
	}
	checkEqualsSnap(t, m, s)
}

// FuzzDeltaRestore drives a random interleaving of writes, allocations,
// frames, snapshots, and full-copy and delta restores, asserting after
// every restore that the memory is word-identical to the snapshot it
// restored (the semantic spec both paths must meet).
func FuzzDeltaRestore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 10, 1, 4, 0, 20, 2, 5, 0, 0, 5, 1, 1})
	f.Add([]byte{2, 8, 0, 100, 3, 4, 2, 4, 4, 5, 0, 0, 5, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 2048
		m := NewMemory(size, 32)
		var snaps []*MemSnap
		var frames []int64
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for i < len(data) {
			switch next() % 6 {
			case 0: // write
				addr := (int64(next())<<8 | int64(next())) % size
				m.Write(addr, uint64(next())+1)
			case 1: // heap alloc
				m.Alloc(int64(next()) % 128)
			case 2: // push a frame
				n := int64(next())%128 + 1
				if _, ok := m.PushFrame(n); ok {
					frames = append(frames, n)
				}
			case 3: // pop the newest frame
				if len(frames) > 0 {
					m.PopFrame(frames[len(frames)-1])
					frames = frames[:len(frames)-1]
				}
			case 4: // snapshot
				if len(snaps) < 8 {
					snaps = append(snaps, m.Snapshot(nil))
				}
			case 5: // restore: even selector byte = delta, odd = forced full copy
				if len(snaps) == 0 {
					continue
				}
				s := snaps[int(next())%len(snaps)]
				if next()%2 == 1 {
					m.base, m.baseGen = nil, 0
				}
				st := m.RestoreSnap(s)
				checkWords(t, m, snapWords(s), fmt.Sprintf("after restore (delta=%v)", st.Delta))
				if len(m.lo) != len(s.lo) || len(m.stack) != len(s.hi) || m.brk != s.brk || m.sp != s.sp {
					t.Fatalf("scalars diverged after restore (delta=%v)", st.Delta)
				}
				// Restored frames stack is the snapshot's; ours no longer applies.
				frames = frames[:0]
			}
		}
	})
}
