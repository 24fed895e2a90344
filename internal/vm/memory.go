package vm

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Restore granularity. One dirty bit covers a block of 64 words (512
// bytes): fine enough that a short forked suffix dirties a small
// fraction of the footprint, coarse enough that the bitmap for the
// 1<<20-word address space is 16 KiB and the store-path cost is one
// shift+or.
const (
	blockShift        = 6               // log2 words per block
	blockWords        = 1 << blockShift // words per dirty block
	dirtyShift        = blockShift + 6  // log2 words covered by one bitmap word
	maxDeltaChainHops = 64              // bound on snapshot-chain walks
)

// Backing granularity. A gap page is 512 words (4 KiB, eight dirty
// blocks): what one wild store costs. A dense extent whose last run used
// under a quarter of it is given back once it exceeds keepWords, so small
// extents are never reallocated and a blown-up one lasts one more run.
const (
	pageShift = 9
	pageWords = 1 << pageShift
	keepWords = 4096
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
//
// That is the logical address space, and size fixes every bound and trap
// in it. The backing follows what is written, not size:
//
//	lo     dense, words [1, 1+len(lo)): the globals, and the heap as far
//	       up as the program has stored below brk
//	stack  dense, words [size-len(stack), size): as far down as the
//	       program has stored at or above sp
//	gap    pageWords-aligned pages for stores that land anywhere else,
//	       which only the wild access of a faulty run does
//
// Both extents grow by doubling and never overlap. An in-bounds word
// with no backing reads zero, which is the invariant Snapshot and the
// restores rest on: what they copy is the backing, and everything else is
// zero on both sides. A load or store inside lo is the interpreter's hot
// path, one unsigned compare; the stack, the gap, growth and the traps
// share one call behind it.
//
// A wild store cannot enlarge a pooled bundle: it is outside [1, brk)
// and [sp, size), so it gets a gap page, and Reset and both restores
// drop every page the state they install does not have. A dense extent
// is bounded by brk or sp, which a fault can still inflate (a corrupted
// Alloc size, then stores into it); fit gives such an extent back after
// the first run that does not use it.
type Memory struct {
	// lo[i] is the word at address i+1. The words of its backing array
	// beyond len(lo) are zero.
	lo []uint64
	// stack[i] is the word at address size-len(stack)+i. It is the tail of
	// stackBuf, whose words in front of it are zero.
	stack    []uint64
	stackBuf []uint64
	// gap[k] backs words [k<<pageShift, (k+1)<<pageShift), less whatever
	// part of that range an extent covers (kept zero in the page).
	gap map[int64]*[pageWords]uint64

	size      int64
	globalEnd int64
	brk       int64 // heap break (next free heap word)
	sp        int64 // stack pointer (lowest in-use stack word)

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
		lo:        make([]uint64, globalWords),
		dirty:     make([]uint64, dirtyWords(size)),
		size:      size,
		globalEnd: 1 + globalWords,
		sp:        size,
	}
	m.brk = m.globalEnd
	return m
}

// Reset rewinds the address space to its NewMemory(size, globalWords) state
// so one allocation serves many runs. It clears what the last run backed,
// not the address space.
func (m *Memory) Reset(size, globalWords int64) {
	if size < globalWords+64 {
		size = globalWords + 64
	}
	m.resize(size)
	m.gap = nil
	m.fit(int(globalWords), 0)
	clear(m.lo)
	m.globalEnd = 1 + globalWords
	m.brk = m.globalEnd
	m.sp = size
	// The bitmap only means "dirty since base"; with no base it may hold
	// garbage, and both Snapshot and a full RestoreSnap clear it before
	// establishing one.
	m.base, m.baseGen = nil, 0
}

// resize changes the logical size. The stack extent is addressed from the
// top, so the caller must be about to overwrite or drop it.
func (m *Memory) resize(size int64) {
	if m.size != size {
		m.size = size
		m.dirty = make([]uint64, dirtyWords(size))
	}
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
func (m *Memory) Size() int64 { return m.size }

// AllocatedWords returns the extent of application data (globals + heap),
// the denominator for contamination percentages.
func (m *Memory) AllocatedWords() int64 { return m.brk - 1 }

// HeapUsed returns the number of heap words allocated so far.
func (m *Memory) HeapUsed() int64 { return m.brk - m.globalEnd }

// BackedBytes returns the bytes of word backing currently allocated: both
// dense extents at their capacity plus the gap pages.
func (m *Memory) BackedBytes() int64 {
	return int64(cap(m.lo)+len(m.stackBuf)+len(m.gap)*pageWords) * 8
}

// InBounds reports whether addr names an accessible word.
func (m *Memory) InBounds(addr int64) bool {
	return addr >= 1 && addr < m.size
}

// inBounds reports whether [base, base+count) is fully accessible.
func (m *Memory) inBounds(base, count int64) bool {
	return count >= 0 && m.InBounds(base) && (count == 0 || m.InBounds(base+count-1))
}

// Read returns the word at addr; ok is false when the access traps.
func (m *Memory) Read(addr int64) (uint64, bool) {
	if w, ok := m.readHot(addr); ok {
		return w, true
	}
	return m.readSlow(addr)
}

// Write stores the word at addr; ok is false when the access traps.
func (m *Memory) Write(addr int64, v uint64) bool {
	return m.writeHot(addr, v) || m.writeSlow(addr, v)
}

// readHot is Read for a word lo holds, which is every access of a
// fault-free application run: one unsigned compare, and small enough to
// inline into the interpreter loop, which calls readSlow itself when it
// reports a miss (a call inside would put Read over the inlining budget).
func (m *Memory) readHot(addr int64) (uint64, bool) {
	if i := uint64(addr) - 1; i < uint64(len(m.lo)) {
		return m.lo[i], true
	}
	return 0, false
}

// writeHot is the store counterpart of readHot: the store and its dirty bit.
func (m *Memory) writeHot(addr int64, v uint64) bool {
	if i := uint64(addr) - 1; i < uint64(len(m.lo)) {
		m.lo[i] = v
		m.dirty[uint64(addr)>>dirtyShift] |= 1 << ((uint64(addr) >> blockShift) & 63)
		return true
	}
	return false
}

// readSlow is Read for every word lo does not hold: the stack, the gap,
// unbacked words and the traps.
//
//go:noinline
func (m *Memory) readSlow(addr int64) (uint64, bool) {
	if !m.InBounds(addr) {
		return 0, false
	}
	if seg, _ := m.span(addr); seg != nil {
		return seg[0], true
	}
	return 0, true
}

// writeSlow is Write for every word lo does not hold, and where backing
// is allocated.
//
//go:noinline
func (m *Memory) writeSlow(addr int64, v uint64) bool {
	if !m.InBounds(addr) {
		return false
	}
	seg, _ := m.span(addr)
	if seg == nil {
		seg = m.back(addr)
	}
	seg[0] = v
	m.markRange(addr, 1)
	return true
}

// span returns the backing of the words from addr to the end of the region
// addr lies in — the low extent, the stack extent or one gap page — and how
// many words that is. seg is nil over unbacked words. addr must be in bounds.
func (m *Memory) span(addr int64) (seg []uint64, n int64) {
	if i := addr - 1; i < int64(len(m.lo)) {
		return m.lo[i:], int64(len(m.lo)) - i
	}
	stackBase := m.size - int64(len(m.stack))
	if addr >= stackBase {
		return m.stack[addr-stackBase:], m.size - addr
	}
	if len(m.gap) == 0 {
		return nil, stackBase - addr
	}
	n = min((addr|(pageWords-1))+1, stackBase) - addr
	if p := m.gap[addr>>pageShift]; p != nil {
		off := addr & (pageWords - 1)
		return p[off : off+n], n
	}
	return nil, n
}

// back gives the unbacked word at addr backing, as a store to it requires,
// and returns its span: heap below brk extends lo, stack at or above sp
// extends stack (each as far as its capacity and brk or sp allow, so a
// sweep lands here once per doubling), anything else gets a gap page.
func (m *Memory) back(addr int64) []uint64 {
	switch {
	case addr < m.brk:
		m.reserveLo(int(addr))
		stackBase := m.size - int64(len(m.stack))
		m.extendLo(int(min(int64(cap(m.lo)), m.brk-1, stackBase-1)))
	case addr >= m.sp:
		m.reserveStack(int(m.size - addr))
		m.extendStack(int(min(int64(len(m.stackBuf)), m.size-m.sp)))
	default:
		if m.gap == nil {
			m.gap = make(map[int64]*[pageWords]uint64)
		}
		m.gap[addr>>pageShift] = new([pageWords]uint64)
	}
	seg, _ := m.span(addr)
	return seg
}

// reserveLo makes lo's capacity at least n words.
func (m *Memory) reserveLo(n int) {
	if n > cap(m.lo) {
		m.lo = append(make([]uint64, 0, max(n, 2*cap(m.lo), blockWords)), m.lo...)
	}
}

// extendLo lengthens lo to n words, which its capacity must hold.
func (m *Memory) extendLo(n int) {
	old := len(m.lo)
	m.lo = m.lo[:n]
	m.absorb(m.lo[old:], int64(old)+1)
}

// reserveStack makes stack's capacity at least n words.
func (m *Memory) reserveStack(n int) {
	if n > len(m.stackBuf) {
		buf := make([]uint64, max(n, 2*len(m.stackBuf), blockWords))
		copy(buf[len(buf)-len(m.stack):], m.stack)
		m.stackBuf, m.stack = buf, buf[len(buf)-len(m.stack):]
	}
}

// extendStack lengthens stack to n words, which its capacity must hold.
func (m *Memory) extendStack(n int) {
	old := len(m.stack)
	m.stack = m.stackBuf[len(m.stackBuf)-n:]
	m.absorb(m.stack[:n-old], m.size-int64(n))
}

// absorb moves what the gap pages hold of words [addr, addr+len(dst))
// into dst, the part of an extent that has just come to cover them.
func (m *Memory) absorb(dst []uint64, addr int64) {
	end := addr + int64(len(dst))
	for k, p := range m.gap {
		first := k << pageShift
		a, b := max(first, addr), min(first+pageWords, end)
		if a >= b {
			continue
		}
		src := p[a-first : b-first]
		copy(dst[a-addr:], src)
		if b-a == pageWords {
			delete(m.gap, k)
		} else {
			clear(src)
		}
	}
}

// fit gives the dense extents exactly the lengths the state being
// installed has, keeping every word they still cover: a longer extent is
// cut back and the cut words zeroed, a shorter one grows over whatever
// the gap holds there. An extent larger than keepWords of which the
// state being replaced used under a quarter is reallocated at the size
// it did use.
func (m *Memory) fit(nLo, nHi int) {
	if used := len(m.lo); nLo > used {
		m.reserveLo(nLo)
		m.extendLo(nLo)
	} else {
		clear(m.lo[nLo:])
		m.lo = m.lo[:nLo]
		if cap(m.lo) > keepWords && used < cap(m.lo)/4 {
			m.lo = append(make([]uint64, 0, used), m.lo...)
		}
	}
	if used := len(m.stack); nHi > used {
		m.reserveStack(nHi)
		m.extendStack(nHi)
	} else {
		clear(m.stack[:used-nHi])
		if len(m.stackBuf) > keepWords && used < len(m.stackBuf)/4 {
			m.stackBuf = append(make([]uint64, used-nHi, used), m.stack[used-nHi:]...)
		}
		m.stack = m.stackBuf[len(m.stackBuf)-nHi:]
	}
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
	for addr, end := m.sp, m.sp+n; addr < end; {
		seg, k := m.span(addr)
		k = min(k, end-addr)
		if seg != nil {
			clear(seg[:k])
		}
		addr += k
	}
	m.markRange(m.sp, n)
	return m.sp, true
}

// PopFrame releases n stack words.
func (m *Memory) PopFrame(n int64) { m.sp += n }

// Words returns a read-only view of [base, base+count); ok is false when
// the range is not fully in bounds. A range inside one dense extent —
// every message of a fault-free run — is a view that aliases the address
// space: it is invalidated by the next write, so callers must fully
// consume or copy it before resuming execution. Any other range is
// materialised.
func (m *Memory) Words(base, count int64) ([]uint64, bool) {
	if !m.inBounds(base, count) {
		return nil, false
	}
	if seg, n := m.span(base); seg != nil && count <= n {
		return seg[:count], true
	}
	return m.CopyOut(base, count)
}

// CopyOut copies count words starting at base into a new slice; ok is false
// when the range is not fully in bounds.
func (m *Memory) CopyOut(base, count int64) ([]uint64, bool) {
	if !m.inBounds(base, count) {
		return nil, false
	}
	out := make([]uint64, count)
	for dst, addr := out, base; len(dst) > 0; {
		seg, n := m.span(addr)
		n = min(n, int64(len(dst)))
		if seg != nil {
			copy(dst[:n], seg)
		}
		dst, addr = dst[n:], addr+n
	}
	return out, true
}

// CopyIn writes the words at base; ok is false when the range is not fully
// in bounds.
func (m *Memory) CopyIn(base int64, data []uint64) bool {
	count := int64(len(data))
	if !m.inBounds(base, count) {
		return false
	}
	for src, addr := data, base; len(src) > 0; {
		seg, _ := m.span(addr)
		if seg == nil {
			seg = m.back(addr)
		}
		n := copy(seg, src)
		src, addr = src[n:], addr+int64(n)
	}
	m.markRange(base, count)
	return true
}

// InitGlobals installs initial global contents (used once before a run).
func (m *Memory) InitGlobals(base int64, data []uint64) bool { return m.CopyIn(base, data) }

// MemSnap is a copy of an address space's backing: the two dense extents
// and whatever gap pages there are, so the cost of a snapshot scales with
// the memory a run actually touched, not with the address-space size.
// Everything outside them is zero by the Memory invariant, which is what
// makes restoring from them exact.
type MemSnap struct {
	lo        []uint64                     // words [1, 1+len(lo))
	hi        []uint64                     // words [size-len(hi), size)
	gap       map[int64]*[pageWords]uint64 // nil for a fault-free run
	size      int64
	globalEnd int64
	brk, sp   int64

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

// clonePages copies a gap; no pages is nil.
func clonePages(gap map[int64]*[pageWords]uint64) map[int64]*[pageWords]uint64 {
	if len(gap) == 0 {
		return nil
	}
	out := make(map[int64]*[pageWords]uint64, len(gap))
	for k, p := range gap {
		c := *p
		out[k] = &c
	}
	return out
}

// Snapshot captures the address space into s (reusing s's backing when
// possible; nil allocates). Later writes to the memory never alias the
// snapshot.
func (m *Memory) Snapshot(s *MemSnap) *MemSnap {
	if s == nil {
		s = &MemSnap{}
	}
	s.lo = append(s.lo[:0], m.lo...)
	s.hi = append(s.hi[:0], m.stack...)
	s.gap = clonePages(m.gap)
	s.size = m.size
	s.globalEnd = m.globalEnd
	s.brk = m.brk
	s.sp = m.sp
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

// EqualSnap reports whether the address space holds exactly the state s
// captured: the same layout (size, global segment, brk, sp) and the same
// word at every address. The two backings may differ in extent — a word
// either side does not back reads zero — so the walk goes region by region
// over both, and a region backed on one side only must be zero there.
func (m *Memory) EqualSnap(s *MemSnap) bool {
	if m.size != s.size || m.globalEnd != s.globalEnd || m.brk != s.brk || m.sp != s.sp {
		return false
	}
	// The snapshot's backing, addressed through the same span as a live
	// memory's.
	snap := Memory{lo: s.lo, stack: s.hi, gap: s.gap, size: s.size}
	for addr := int64(1); addr < m.size; {
		a, na := m.span(addr)
		b, nb := snap.span(addr)
		n := min(na, nb)
		switch {
		case a == nil && b == nil:
		case a == nil:
			if !zero(b[:n]) {
				return false
			}
		case b == nil:
			if !zero(a[:n]) {
				return false
			}
		default:
			if !slices.Equal(a[:n], b[:n]) {
				return false
			}
		}
		addr += n
	}
	return true
}

// zero reports whether every word of ws is zero.
func zero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// RestoreSnap rewinds the address space to the snapshotted state and
// reports what the restore cost. When the memory's last-known-equal base
// snapshot sits on the same chain as s, only the union of blocks dirtied
// between the two states is copied back (delta path); otherwise — first
// restore, size change or broken chain — the full-copy path runs. Either
// way the result equals the snapshotted memory word for word, backed
// exactly as the snapshot is, and the snapshot stays reusable across any
// number of restores.
func (m *Memory) RestoreSnap(s *MemSnap) RestoreStats {
	if m.size == s.size && m.baseValid() {
		if un, ok := m.deltaUnion(s); ok {
			return m.restoreDelta(s, un)
		}
	}
	m.resize(s.size)
	m.gap = nil
	m.fit(len(s.lo), len(s.hi))
	copy(m.lo, s.lo)
	copy(m.stack, s.hi)
	m.rebase(s)
	total := totalBlocks(s.size)
	return RestoreStats{
		Bytes:       int64(len(s.lo)+len(s.hi)+len(s.gap)*pageWords) * 8,
		DirtyBlocks: total,
		TotalBlocks: total,
	}
}

// rebase finishes a restore whose extents are in place: the gap, the
// scalars, a clean bitmap and s as the delta base.
func (m *Memory) rebase(s *MemSnap) {
	if len(m.gap)+len(s.gap) > 0 {
		m.gap = clonePages(s.gap)
	}
	m.globalEnd = s.globalEnd
	m.brk = s.brk
	m.sp = s.sp
	clear(m.dirty)
	m.base, m.baseGen = s, s.gen
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
// with their content under snapshot s. fit first gives the memory s's
// extents, which zeroes every word s does not back densely and moves in
// the clean words the gap held; what is left of a dirty block is then
// its overlap with s.lo and s.hi, and rebase installs s's own gap whole.
func (m *Memory) restoreDelta(s *MemSnap, un []uint64) RestoreStats {
	size := s.size
	m.fit(len(s.lo), len(s.hi))
	loEnd, hiBase := 1+int64(len(s.lo)), size-int64(len(s.hi))
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
			if a, b := max(start, 1), min(end, loEnd); a < b {
				copy(m.lo[a-1:b-1], s.lo[a-1:b-1])
			}
			if a := max(start, hiBase); a < end {
				copy(m.stack[a-hiBase:end-hiBase], s.hi[a-hiBase:end-hiBase])
			}
			blocks++
			bytes += (end - start) * 8
		}
	}
	m.rebase(s)
	return RestoreStats{Bytes: bytes, DirtyBlocks: blocks, TotalBlocks: totalBlocks(size), Delta: true}
}
