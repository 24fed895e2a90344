package vm

import "slices"

// Backing granularity. A gap page is 512 words (4 KiB): what one wild
// store costs. A dense extent starts at minExtentWords and grows by
// doubling. One whose last run used under a quarter of it is given back
// once it exceeds keepWords, so small extents are never reallocated and a
// blown-up one lasts one more run.
const (
	pageShift      = 9
	pageWords      = 1 << pageShift
	minExtentWords = 64
	keepWords      = 4096
)

// RestoreStats summarizes one restore: how many bytes were copied back
// from the snapshot, which is all of it.
type RestoreStats struct {
	Bytes int64 // bytes written while restoring
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
// with no backing reads zero, which is the invariant Snapshot and
// RestoreSnap rest on: what they copy is the backing, and everything else is
// zero on both sides. A load or store inside lo is the interpreter's hot
// path, one unsigned compare; the stack, the gap, growth and the traps
// share one call behind it.
//
// A wild store cannot enlarge a pooled bundle: it is outside [1, brk)
// and [sp, size), so it gets a gap page, and Reset and RestoreSnap
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
}

// NewMemory builds an address space of size words with the given global
// segment extent. The global segment begins at address 1.
func NewMemory(size, globalWords int64) *Memory {
	if size < globalWords+64 {
		size = globalWords + 64
	}
	m := &Memory{
		lo:        make([]uint64, globalWords),
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
	m.size = size
	m.gap = nil
	m.fit(int(globalWords), 0)
	clear(m.lo)
	m.globalEnd = 1 + globalWords
	m.brk = m.globalEnd
	m.sp = size
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

// writeHot is the store counterpart of readHot.
func (m *Memory) writeHot(addr int64, v uint64) bool {
	if i := uint64(addr) - 1; i < uint64(len(m.lo)) {
		m.lo[i] = v
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
		m.lo = append(make([]uint64, 0, max(n, 2*cap(m.lo), minExtentWords)), m.lo...)
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
		buf := make([]uint64, max(n, 2*len(m.stackBuf), minExtentWords))
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
	// deterministic regardless of earlier frame contents.
	for addr, end := m.sp, m.sp+n; addr < end; {
		seg, k := m.span(addr)
		k = min(k, end-addr)
		if seg != nil {
			clear(seg[:k])
		}
		addr += k
	}
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
// reports what the restore cost. It copies the snapshot's whole backing
// in, so the result equals the snapshotted memory word for word, backed
// exactly as the snapshot is, and the snapshot stays reusable across any
// number of restores.
func (m *Memory) RestoreSnap(s *MemSnap) RestoreStats {
	m.size = s.size
	// Drop the gap before fit, which would move its words into the extents.
	m.gap = nil
	m.fit(len(s.lo), len(s.hi))
	copy(m.lo, s.lo)
	copy(m.stack, s.hi)
	m.gap = clonePages(s.gap)
	m.globalEnd = s.globalEnd
	m.brk = s.brk
	m.sp = s.sp
	return RestoreStats{Bytes: int64(len(s.lo)+len(s.hi)+len(s.gap)*pageWords) * 8}
}
