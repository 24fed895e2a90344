package vm

import (
	"math/bits"
	"sync/atomic"
)

// Restore granularity. One dirty bit covers a block of 64 words (512
// bytes): fine enough that a short forked suffix dirties a small
// fraction of the footprint, coarse enough that the bitmap for an 8 MiB
// address space is 16 KiB and the store-path cost is one shift+or.
const (
	blockShift        = 6               // log2 words per block
	blockWords        = 1 << blockShift // words per dirty block
	dirtyShift        = blockShift + 6  // log2 words covered by one bitmap word
	maxDeltaChainHops = 64              // bound on snapshot-chain walks
)

// dirtyWords returns the bitmap length (in uint64 words) covering a
// size-word address space.
func dirtyWords(size int64) int { return int(uint64(size-1)>>dirtyShift) + 1 }

// totalBlocks returns the number of dirty-trackable blocks in a
// size-word address space.
func totalBlocks(size int64) int { return int((size + blockWords - 1) >> blockShift) }

// memGen hands out process-unique snapshot generations. A generation is
// never reused, so a recycled *MemSnap whose backing was recaptured is
// always detected by a gen mismatch rather than trusted as a stale base.
var memGen atomic.Uint64

// RestoreStats summarizes one restore: how many bytes were copied back
// from the snapshot and what fraction of the address-space blocks were
// dirty. Full-copy restores report every live block dirty.
type RestoreStats struct {
	Bytes       int64 // bytes written while restoring
	DirtyBlocks int   // blocks restored
	TotalBlocks int   // blocks in the address space
	Delta       bool  // delta path taken (false: full copy)
}

// Memory is the word-addressed address space of one simulated process.
//
// Layout (word addresses):
//
//	0                     null word (traps)
//	[1, 1+globalWords)    global data segment
//	[globalEnd, brk)      heap (bump allocated, grows up)
//	[sp, size)            stack (grows down; frames carved by calls)
//
// The heap and stack trap when they would collide. "Application memory
// state" for contamination percentages (paper Fig. 7f) is the allocated
// extent: globals plus heap, the segments that hold application data
// structures.
type Memory struct {
	words     []uint64
	globalEnd int64
	brk       int64 // heap break (next free heap word)
	sp        int64 // stack pointer (lowest in-use stack word)

	// Write watermarks, so Reset zeroes only the segments a run actually
	// touched instead of the whole address space. Writes below the stack
	// pointer (globals + heap + wild addresses) raise loHi; writes at or
	// above it (stack frames) lower hiLo. Both are monotone within a run:
	// after PopFrame a stale frame word sits below the new sp, but it was
	// at or above sp when written, so hiLo still covers it.
	loHi int64 // exclusive upper bound of dirty low-segment words
	hiLo int64 // inclusive lower bound of dirty stack-segment words

	// Delta-restore state. dirty has one bit per blockWords-sized block,
	// set before (well, as) any write to that block lands; it records
	// exactly the blocks that may differ from base. base/baseGen name the
	// snapshot this memory last equalled (just after Snapshot or
	// RestoreSnap); the base is trusted only while base.gen == baseGen,
	// so recapturing a pooled snapshot elsewhere invalidates it.
	dirty   []uint64
	scratch []uint64 // union-bitmap scratch for delta restores
	base    *MemSnap
	baseGen uint64
}

// NewMemory builds an address space of size words with the given global
// segment extent. The global segment begins at address 1.
func NewMemory(size, globalWords int64) *Memory {
	if size < globalWords+64 {
		size = globalWords + 64
	}
	m := &Memory{
		words:     make([]uint64, size),
		dirty:     make([]uint64, dirtyWords(size)),
		globalEnd: 1 + globalWords,
		sp:        size,
		loHi:      1,
		hiLo:      size,
	}
	m.brk = m.globalEnd
	return m
}

// Reset rewinds the address space to its NewMemory(size, globalWords) state
// so one allocation serves many runs. Only the watermarked dirty segments
// are zeroed; an untouched 8 MiB address space costs nothing to recycle.
func (m *Memory) Reset(size, globalWords int64) {
	if size < globalWords+64 {
		size = globalWords + 64
	}
	if int64(len(m.words)) != size {
		m.words = make([]uint64, size)
		m.dirty = make([]uint64, dirtyWords(size))
	} else {
		if m.loHi > 1 {
			clear(m.words[1:m.loHi])
		}
		if m.hiLo < size {
			clear(m.words[m.hiLo:])
		}
	}
	m.globalEnd = 1 + globalWords
	m.brk = m.globalEnd
	m.sp = size
	m.loHi = 1
	m.hiLo = size
	// The bitmap only means "dirty since base"; with no base it may hold
	// garbage, and both Snapshot and a full RestoreSnap clear it before
	// establishing one.
	m.base, m.baseGen = nil, 0
}

func (m *Memory) baseValid() bool {
	return m.base != nil && m.baseGen != 0 && m.base.gen == m.baseGen
}

// markRange sets the dirty bits covering words [base, base+count).
func (m *Memory) markRange(base, count int64) {
	if count <= 0 {
		return
	}
	first := uint64(base) >> blockShift
	last := uint64(base+count-1) >> blockShift
	for blk := first; blk <= last; blk++ {
		m.dirty[blk>>6] |= 1 << (blk & 63)
	}
}

// Size returns the total address-space size in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// AllocatedWords returns the extent of application data (globals + heap),
// the denominator for contamination percentages.
func (m *Memory) AllocatedWords() int64 { return m.brk - 1 }

// HeapUsed returns the number of heap words allocated so far.
func (m *Memory) HeapUsed() int64 { return m.brk - m.globalEnd }

// InBounds reports whether addr names an accessible word.
func (m *Memory) InBounds(addr int64) bool {
	return addr >= 1 && addr < int64(len(m.words))
}

// Read returns the word at addr; ok is false when the access traps.
func (m *Memory) Read(addr int64) (uint64, bool) {
	if !m.InBounds(addr) {
		return 0, false
	}
	return m.words[addr], true
}

// Write stores the word at addr; ok is false when the access traps.
func (m *Memory) Write(addr int64, v uint64) bool {
	if !m.InBounds(addr) {
		return false
	}
	m.words[addr] = v
	m.dirty[uint64(addr)>>dirtyShift] |= 1 << ((uint64(addr) >> blockShift) & 63)
	if addr >= m.sp {
		if addr < m.hiLo {
			m.hiLo = addr
		}
	} else if addr >= m.loHi {
		m.loHi = addr + 1
	}
	return true
}

// Alloc bump-allocates n words on the heap and returns the base address;
// ok is false when the heap would meet the stack.
func (m *Memory) Alloc(n int64) (int64, bool) {
	if n < 0 || m.brk+n > m.sp {
		return 0, false
	}
	base := m.brk
	m.brk += n
	return base, true
}

// PushFrame reserves n stack words and returns the new frame base; ok is
// false on stack overflow.
func (m *Memory) PushFrame(n int64) (int64, bool) {
	if n < 0 || m.sp-n < m.brk {
		return 0, false
	}
	m.sp -= n
	// Stack frames are reused across calls; clear to keep runs
	// deterministic regardless of earlier frame contents. The clear is a
	// write like any other and must reach the dirty bitmap.
	clear(m.words[m.sp : m.sp+n])
	m.markRange(m.sp, n)
	return m.sp, true
}

// PopFrame releases n stack words.
func (m *Memory) PopFrame(n int64) { m.sp += n }

// Words returns a read-only view of [base, base+count); ok is false when
// the range is not fully in bounds. The view aliases the address space —
// it is invalidated by the next write, so callers must fully consume or
// copy it before resuming execution.
func (m *Memory) Words(base, count int64) ([]uint64, bool) {
	if count < 0 || !m.InBounds(base) || (count > 0 && !m.InBounds(base+count-1)) {
		return nil, false
	}
	return m.words[base : base+count], true
}

// CopyOut copies count words starting at base into a new slice; ok is false
// when the range is not fully in bounds.
func (m *Memory) CopyOut(base, count int64) ([]uint64, bool) {
	if count < 0 || !m.InBounds(base) || (count > 0 && !m.InBounds(base+count-1)) {
		return nil, false
	}
	out := make([]uint64, count)
	copy(out, m.words[base:base+count])
	return out, true
}

// CopyIn writes the words at base; ok is false when the range is not fully
// in bounds.
func (m *Memory) CopyIn(base int64, data []uint64) bool {
	count := int64(len(data))
	if !m.InBounds(base) || (count > 0 && !m.InBounds(base+count-1)) {
		return false
	}
	copy(m.words[base:base+count], data)
	m.markRange(base, count)
	if base >= m.sp {
		if base < m.hiLo {
			m.hiLo = base
		}
	} else if base+count > m.loHi {
		// A range crossing into the stack segment is fully covered by the
		// low watermark; Reset zeroes [1, loHi) regardless of sp.
		m.loHi = base + count
	}
	return true
}

// InitGlobals installs initial global contents (used once before a run).
func (m *Memory) InitGlobals(base int64, data []uint64) bool { return m.CopyIn(base, data) }

// MemSnap is a watermark-bounded copy of an address space: only the dirty
// low segment (globals + heap + wild writes) and the dirty stack segment
// are copied, so the cost of a snapshot scales with the memory a run
// actually touched, not with the 8 MiB address-space size. Everything
// outside those two segments is zero by the Memory invariant, which is what
// makes restoring from the two segments exact.
type MemSnap struct {
	lo        []uint64 // words [1, loHi)
	hi        []uint64 // words [hiLo, size)
	size      int64
	globalEnd int64
	brk, sp   int64
	loHi      int64
	hiLo      int64

	// Chain link for delta restores. When this snapshot was captured from
	// a memory whose content was last equal to another snapshot (the
	// usual case during a multi-cut golden capture run), sincePrev is the
	// dirty bitmap accumulated between that snapshot and this one, and
	// prev/prevGen name it. RestoreSnap can then move the memory between
	// any two snapshots on one chain by copying only the union of the
	// per-hop bitmaps. gen is process-unique; a prev whose gen no longer
	// matches prevGen was recaptured and the chain is treated as broken.
	gen       uint64
	prev      *MemSnap
	prevGen   uint64
	sincePrev []uint64
}

// Snapshot captures the address space into s (reusing s's backing when
// possible; nil allocates). Later writes to the memory never alias the
// snapshot.
func (m *Memory) Snapshot(s *MemSnap) *MemSnap {
	if s == nil {
		s = &MemSnap{}
	}
	s.lo = append(s.lo[:0], m.words[1:m.loHi]...)
	s.hi = append(s.hi[:0], m.words[m.hiLo:]...)
	s.size = int64(len(m.words))
	s.globalEnd = m.globalEnd
	s.brk = m.brk
	s.sp = m.sp
	s.loHi = m.loHi
	s.hiLo = m.hiLo
	if m.baseValid() && m.base != s {
		// Link into the base's chain: the live bitmap is exactly the set
		// of blocks on which this snapshot may differ from the base.
		s.prev = m.base
		s.prevGen = m.baseGen
		s.sincePrev = append(s.sincePrev[:0], m.dirty...)
	} else {
		s.prev = nil
		s.prevGen = 0
		s.sincePrev = s.sincePrev[:0]
	}
	s.gen = memGen.Add(1)
	// The memory now equals s word for word; future writes are dirt
	// relative to it.
	m.base, m.baseGen = s, s.gen
	clear(m.dirty)
	return s
}

// RestoreSnap rewinds the address space to the snapshotted state and
// reports what the restore cost. When the memory's last-known-equal base
// snapshot sits on the same chain as s, only the union of blocks dirtied
// between the two states is copied back (delta path); otherwise — first
// restore, size change or broken chain — the full-copy path runs. Either
// way the result equals the snapshotted memory word for word and the
// snapshot stays reusable across any number of restores.
func (m *Memory) RestoreSnap(s *MemSnap) RestoreStats {
	if int64(len(m.words)) == s.size && m.baseValid() {
		if un, ok := m.deltaUnion(s); ok {
			return m.restoreDelta(s, un)
		}
	}
	if int64(len(m.words)) != s.size {
		m.words = make([]uint64, s.size)
		m.dirty = make([]uint64, dirtyWords(s.size))
	} else {
		if m.loHi > 1 {
			clear(m.words[1:m.loHi])
		}
		if m.hiLo < int64(len(m.words)) {
			clear(m.words[m.hiLo:])
		}
	}
	copy(m.words[1:], s.lo)
	copy(m.words[s.hiLo:], s.hi)
	m.globalEnd = s.globalEnd
	m.brk = s.brk
	m.sp = s.sp
	m.loHi = s.loHi
	m.hiLo = s.hiLo
	clear(m.dirty)
	m.base, m.baseGen = s, s.gen
	total := totalBlocks(s.size)
	return RestoreStats{
		Bytes:       int64(len(s.lo)+len(s.hi)) * 8,
		DirtyBlocks: total,
		TotalBlocks: total,
	}
}

// deltaUnion assembles into m.scratch the union of every block that may
// differ between the live memory and snapshot s: the live dirty bitmap
// plus the per-hop sincePrev bitmaps along the chain between s and the
// base, walked from the younger snapshot down to the older. ok is false
// when the two are not connected by an intact chain.
func (m *Memory) deltaUnion(s *MemSnap) ([]uint64, bool) {
	nd := len(m.dirty)
	un := m.scratch
	if cap(un) < nd {
		un = make([]uint64, nd)
		m.scratch = un
	} else {
		un = un[:nd]
	}
	copy(un, m.dirty)
	from, to := s, m.base
	if from == to {
		return un, true
	}
	if from.gen < to.gen {
		from, to = to, from
	}
	for hops := 0; from != to; hops++ {
		p := from.prev
		if hops >= maxDeltaChainHops || p == nil || p.gen != from.prevGen ||
			p.gen < to.gen || len(from.sincePrev) != nd {
			return nil, false
		}
		for i, w := range from.sincePrev {
			un[i] |= w
		}
		from = p
	}
	return un, true
}

// restoreDelta rewrites exactly the blocks named by the union bitmap
// with their content under snapshot s. Per the Memory invariant a word
// of s is s.lo[addr-1] for addr in [1, s.loHi), s.hi[addr-s.hiLo] for
// addr in [s.hiLo, size), and zero in between — so each dirty block is
// reconstructed from up to three subranges.
func (m *Memory) restoreDelta(s *MemSnap, un []uint64) RestoreStats {
	size := s.size
	var blocks int
	var bytes int64
	for wi, w := range un {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << bit
			start := (int64(wi)<<6 | int64(bit)) << blockShift
			if start >= size {
				continue
			}
			end := min(start+blockWords, size)
			if a, b := max(start, 1), min(end, s.loHi); a < b {
				copy(m.words[a:b], s.lo[a-1:b-1])
			}
			if a, b := max(start, s.loHi), min(end, s.hiLo); a < b {
				clear(m.words[a:b])
			}
			if a, b := max(start, s.hiLo), end; a < b {
				copy(m.words[a:b], s.hi[a-s.hiLo:b-s.hiLo])
			}
			blocks++
			bytes += (end - start) * 8
		}
	}
	m.globalEnd = s.globalEnd
	m.brk = s.brk
	m.sp = s.sp
	m.loHi = s.loHi
	m.hiLo = s.hiLo
	clear(m.dirty)
	m.base, m.baseGen = s, s.gen
	return RestoreStats{Bytes: bytes, DirtyBlocks: blocks, TotalBlocks: totalBlocks(size), Delta: true}
}
