package vm

import "testing"

// TestWildAccessFootprint pins what a fault may cost in memory: each way a
// faulty run reaches far outside its data keeps the backing of the full
// 8 MiB address space under 1 MiB while it lasts, and Reset, or restoring
// the golden snapshot, gives all of it back.
func TestWildAccessFootprint(t *testing.T) {
	const small, afterwards = 1 << 20, 64 << 10
	for _, wild := range []struct {
		name string
		do   func(m *Memory) bool
	}{
		{"store at size/2", func(m *Memory) bool { return m.Write(MemWords/2, 7) }},
		{"message of 100,000 words into the gap", func(m *Memory) bool {
			return m.CopyIn(MemWords/4, make([]uint64, 100_000))
		}},
		{"corrupted allocation of 500,000 words, never written", func(m *Memory) bool {
			_, ok := m.Alloc(500_000)
			return ok
		}},
	} {
		for _, undo := range []string{"Reset", "RestoreSnap"} {
			t.Run(wild.name+"/"+undo, func(t *testing.T) {
				m := NewMemory(MemWords, 100)
				base, _ := m.Alloc(1000)
				for a := int64(1); a < base+1000; a++ {
					m.Write(a, uint64(a))
				}
				golden := m.Snapshot(nil)
				clean := m.BackedBytes()
				if !wild.do(m) {
					t.Fatal("the wild access trapped")
				}
				if got := m.BackedBytes(); got >= small {
					t.Errorf("%d bytes backed after the wild access, want under %d", got, small)
				}
				if undo == "Reset" {
					m.Reset(MemWords, 100)
				} else {
					m.RestoreSnap(golden)
				}
				if got := m.BackedBytes(); got >= afterwards || got > clean {
					t.Errorf("%d bytes backed after %s, want at most the %d before and under %d", got, undo, clean, afterwards)
				}
				if w, ok := m.Read(MemWords / 2); !ok || w != 0 {
					t.Errorf("word %d reads %#x,%v after %s", MemWords/2, w, ok, undo)
				}
			})
		}
	}
}

// TestBlownExtentIsGivenBack: a corrupted allocation that IS written
// through grows the dense extent like any heap, and the extent goes back
// to what the program uses after the first run that leaves it idle.
func TestBlownExtentIsGivenBack(t *testing.T) {
	m := NewMemory(MemWords, 100)
	base, _ := m.Alloc(1000)
	for a := int64(1); a < base+1000; a++ {
		m.Write(a, uint64(a))
	}
	golden := m.Snapshot(nil)
	big, _ := m.Alloc(500_000)
	for a := big; a < big+500_000; a++ {
		m.Write(a, 1)
	}
	if got := m.BackedBytes(); got < 500_000*8 {
		t.Fatalf("%d bytes backed after writing 500,000 words", got)
	}
	for run := 0; run < 2; run++ {
		m.RestoreSnap(golden)
		m.Write(base, uint64(run))
	}
	if got := m.BackedBytes(); got >= 64<<10 {
		t.Errorf("%d bytes still backed two clean runs after the blown one", got)
	}
	m.RestoreSnap(golden)
	checkEqualsSnap(t, m, golden)
}
