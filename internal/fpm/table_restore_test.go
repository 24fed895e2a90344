package fpm

import (
	"slices"
	"testing"
)

// checkEqualsTableSnap asserts the table is the snapshot's state: the
// slot arrays word for word, so iteration order matches too, plus the
// observation-history scalars.
func checkEqualsTableSnap(t *testing.T, tb *Table, s *TableSnap) {
	t.Helper()
	if !slices.Equal(tb.keys, s.keys) || !slices.Equal(tb.vals, s.vals) || tb.n != s.n || tb.shift != s.shift {
		t.Fatalf("restored slots (%d slots, %d entries) differ from the snapshot's (%d slots, %d entries)",
			len(tb.keys), tb.n, len(s.keys), s.n)
	}
	if tb.hasMin != s.hasMin || (s.hasMin && tb.minVal != s.minVal) ||
		tb.peak != s.peak || tb.everContaminated != s.ever {
		t.Fatalf("restored scalars (%v,%d,%d,%v) want (%v,%d,%d,%v)",
			tb.hasMin, tb.minVal, tb.peak, tb.everContaminated,
			s.hasMin, s.minVal, s.peak, s.ever)
	}
}

// TestTableDeltaRestore checks that a fork's value change, insert and
// removal are undone by a restore, which copies the snapshot's slots.
func TestTableDeltaRestore(t *testing.T) {
	tb := NewTable()
	for a := int64(10); a < 20; a++ {
		tb.Record(a, uint64(a)*7)
	}
	s := tb.Snapshot(nil)
	tb.Record(10, 999) // value change
	tb.Record(50, 1)   // insert
	tb.Cleanse(15)     // removal
	if bytes, want := tb.RestoreSnap(s), int64(len(s.keys))*16; bytes != want {
		t.Fatalf("restore copied %d bytes, want the snapshot's %d", bytes, want)
	}
	checkEqualsTableSnap(t, tb, s)
}

// FuzzTableRestore interleaves records, cleanses, bursts of records that
// grow the table past its initial slots, snapshots and restores,
// asserting after every restore that the table equals the restored
// snapshot slot for slot.
func FuzzTableRestore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 2, 3, 0, 1})
	f.Add([]byte{0, 10, 1, 2, 4, 0, 40, 2, 3, 0, 3, 1, 1, 3, 0, 11, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTable()
		var snaps []*TableSnap
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
			switch next() % 5 {
			case 0: // record
				tb.Record(int64(next())%64, uint64(next()))
			case 1: // cleanse
				tb.Cleanse(int64(next()) % 64)
			case 2: // snapshot
				if len(snaps) < 8 {
					snaps = append(snaps, tb.Snapshot(nil))
				}
			case 3: // restore
				if len(snaps) == 0 {
					continue
				}
				s := snaps[int(next())%len(snaps)]
				tb.RestoreSnap(s)
				checkEqualsTableSnap(t, tb, s)
			case 4: // a burst of records past the initial slot count
				base, n := int64(next()), int64(next())%64
				for a := base; a < base+n; a++ {
					tb.Record(a, uint64(a)|1)
				}
			}
		}
	})
}
