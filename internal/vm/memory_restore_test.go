package vm

import "testing"

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
// scalar-for-scalar the snapshotted state, backed exactly as the snapshot
// is.
func checkEqualsSnap(t *testing.T, m *Memory, s *MemSnap) {
	t.Helper()
	checkWords(t, m, snapWords(s), "after restore")
	if m.globalEnd != s.globalEnd || m.brk != s.brk || m.sp != s.sp ||
		len(m.lo) != len(s.lo) || len(m.stack) != len(s.hi) || len(m.gap) != len(s.gap) {
		t.Fatalf("scalars (%d,%d,%d) extents (%d,%d,%d) after restore, want (%d,%d,%d) (%d,%d,%d)",
			m.globalEnd, m.brk, m.sp, len(m.lo), len(m.stack), len(m.gap),
			s.globalEnd, s.brk, s.sp, len(s.lo), len(s.hi), len(s.gap))
	}
}

// snapBytes is what restoring s copies: its whole backing.
func snapBytes(s *MemSnap) int64 {
	return int64(len(s.lo)+len(s.hi)+len(s.gap)*pageWords) * 8
}

// TestDeltaRestoreAboveWatermark forks writes above the golden low
// extent — into the zero gap the snapshot never copied, and into
// stack frames deeper than the snapshot ever pushed — and over the
// golden stack frame, and checks the restore re-zeroes the first two and
// copies the third back.
func TestDeltaRestoreAboveWatermark(t *testing.T) {
	m := NewMemory(4096, 64)
	for a := int64(1); a < 65; a++ {
		m.Write(a, uint64(a)*3)
	}
	golden, ok := m.PushFrame(8)
	if !ok {
		t.Fatal("push trapped")
	}
	for a := golden; a < golden+8; a++ {
		m.Write(a, uint64(a)^0x5a)
	}
	s := m.Snapshot(nil)
	if len(s.lo) != 64 || len(s.hi) != 8 || s.gap != nil {
		t.Fatalf("unexpected golden extents lo=%d hi=%d gap=%d", len(s.lo), len(s.hi), len(s.gap))
	}
	// Wild write far above the golden low extent.
	if !m.Write(3000, 7) {
		t.Fatal("write trapped")
	}
	// Ordinary dirt inside the copied segment and the golden frame.
	m.Write(30, 9)
	m.Write(golden+3, 10)
	// Stack dirt below the golden stack extent.
	fb, ok := m.PushFrame(32)
	if !ok {
		t.Fatal("push trapped")
	}
	m.Write(fb+1, 11)
	m.PopFrame(32)
	if st := m.RestoreSnap(s); st.Bytes != snapBytes(s) {
		t.Fatalf("restore copied %d bytes, want the snapshot's %d", st.Bytes, snapBytes(s))
	}
	checkEqualsSnap(t, m, s)
}

// TestDeltaRestoreWatermarkShrink runs two successive forks off one
// snapshot where the second writes far less than the first: the live
// extents shrink back between forks, and each restore costs the snapshot,
// whatever its fork wrote.
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
	if st := m.RestoreSnap(s); st.Bytes != snapBytes(s) {
		t.Fatalf("wide fork restored %d bytes, want the snapshot's %d", st.Bytes, snapBytes(s))
	}
	checkEqualsSnap(t, m, s)
	// Fork 2: narrow — a single word next to the golden extent.
	m.Write(2, 3)
	if st := m.RestoreSnap(s); st.Bytes != snapBytes(s) {
		t.Fatalf("narrow fork restored %d bytes, want the snapshot's %d", st.Bytes, snapBytes(s))
	}
	checkEqualsSnap(t, m, s)
}

// TestDeltaRestoreZeroWriteFork checks that restoring with nothing
// written — immediately after Snapshot, and again immediately after a
// restore — leaves the snapshotted state.
func TestDeltaRestoreZeroWriteFork(t *testing.T) {
	m := NewMemory(4096, 64)
	for a := int64(1); a < 300; a++ {
		m.Write(a, uint64(a)^0x9e)
	}
	s := m.Snapshot(nil)
	for round := 0; round < 2; round++ {
		m.RestoreSnap(s)
		checkEqualsSnap(t, m, s)
	}
}

// FuzzRestore drives a random interleaving of writes, allocations,
// frames, snapshots and restores, asserting after every restore that the
// memory is word-identical to the snapshot it restored and backed as it
// is.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 10, 1, 4, 0, 20, 2, 5, 0, 5, 1})
	f.Add([]byte{2, 8, 0, 7, 248, 9, 4, 0, 7, 250, 3, 5, 0, 3})
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
			case 5: // restore
				if len(snaps) == 0 {
					continue
				}
				s := snaps[int(next())%len(snaps)]
				m.RestoreSnap(s)
				checkEqualsSnap(t, m, s)
				// Restored frames stack is the snapshot's; ours no longer applies.
				frames = frames[:0]
			}
		}
	})
}
