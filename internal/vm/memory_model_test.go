package vm

import (
	"math/rand"
	"slices"
	"testing"
)

// flatMem is the reference model of Memory: the address space as one flat
// array, every word backed, which is what Memory was before its backing
// followed what is written. It keeps the same logical rules (null word,
// bounds, heap-meets-stack, snapshots) in the most literal form, so any
// difference from Memory is a bug in the extents.
type flatMem struct {
	words              []uint64
	globalEnd, brk, sp int64
}

type flatSnap struct {
	words              []uint64
	globalEnd, brk, sp int64
}

func newFlat(size, globalWords int64) *flatMem {
	f := &flatMem{}
	f.reset(size, globalWords)
	return f
}

func (f *flatMem) reset(size, globalWords int64) {
	size = max(size, globalWords+64)
	f.words = make([]uint64, size)
	f.globalEnd, f.brk, f.sp = 1+globalWords, 1+globalWords, size
}

func (f *flatMem) in(base, count int64) bool {
	return count >= 0 && base >= 1 && base+count <= int64(len(f.words)) && base < int64(len(f.words))
}

func (f *flatMem) read(addr int64) (uint64, bool) {
	if !f.in(addr, 1) {
		return 0, false
	}
	return f.words[addr], true
}

func (f *flatMem) copyIn(base int64, data []uint64) bool {
	if !f.in(base, int64(len(data))) {
		return false
	}
	copy(f.words[base:], data)
	return true
}

func (f *flatMem) alloc(n int64) (int64, bool) {
	if n < 0 || f.brk+n > f.sp {
		return 0, false
	}
	f.brk += n
	return f.brk - n, true
}

func (f *flatMem) pushFrame(n int64) (int64, bool) {
	if n < 0 || f.sp-n < f.brk {
		return 0, false
	}
	f.sp -= n
	clear(f.words[f.sp : f.sp+n])
	return f.sp, true
}

func (f *flatMem) snapshot(s *flatSnap) {
	*s = flatSnap{words: slices.Clone(f.words), globalEnd: f.globalEnd, brk: f.brk, sp: f.sp}
}

func (f *flatMem) restore(s *flatSnap) {
	f.words = slices.Clone(s.words)
	f.globalEnd, f.brk, f.sp = s.globalEnd, s.brk, s.sp
}

// modelSize is small enough to compare every word after every restore and
// large enough for the gap to hold many pages.
const modelSize = 1 << 14

// pair is one Memory with its flat model and the frames pushed on it.
type pair struct {
	m      *Memory
	f      *flatMem
	frames []int64
}

// snapPair is one snapshot taken from both, reusable for recapture.
type snapPair struct {
	s      *MemSnap
	fs     *flatSnap
	frames []int64
}

// checkBacking asserts the representation invariants the extents rest on.
func checkBacking(t *testing.T, m *Memory) {
	t.Helper()
	if int64(len(m.lo)) > m.brk-1 || int64(len(m.lo)+len(m.stack)) > m.size-1 {
		t.Fatalf("extents lo=%d stack=%d overrun brk=%d size=%d", len(m.lo), len(m.stack), m.brk, m.size)
	}
	for i, w := range m.lo[len(m.lo):cap(m.lo)] {
		if w != 0 {
			t.Fatalf("lo backing word %d beyond len %d is %#x", len(m.lo)+i, len(m.lo), w)
		}
	}
	for i, w := range m.stackBuf[:len(m.stackBuf)-len(m.stack)] {
		if w != 0 {
			t.Fatalf("stack backing word %d in front of the extent is %#x", i, w)
		}
	}
	stackBase := m.size - int64(len(m.stack))
	for k, p := range m.gap {
		for i, w := range p {
			if a := k<<pageShift + int64(i); w != 0 && (a <= int64(len(m.lo)) || a >= stackBase) {
				t.Fatalf("gap page %d holds %#x at %d, which an extent covers", k, w, a)
			}
		}
	}
}

// checkSame asserts the scalars agree, and the words at the probes (or,
// with all set, every word).
func checkSame(t *testing.T, step int, p *pair, probes []int64, all bool) {
	t.Helper()
	m, f := p.m, p.f
	if m.size != int64(len(f.words)) || m.globalEnd != f.globalEnd || m.brk != f.brk || m.sp != f.sp ||
		m.AllocatedWords() != f.brk-1 {
		t.Fatalf("step %d: scalars size=%d globalEnd=%d brk=%d sp=%d, model %d %d %d %d",
			step, m.size, m.globalEnd, m.brk, m.sp, len(f.words), f.globalEnd, f.brk, f.sp)
	}
	if all {
		probes = probes[:0]
		for a := int64(-1); a <= m.size; a++ {
			probes = append(probes, a)
		}
	}
	for _, a := range probes {
		got, ok := m.Read(a)
		want, wok := f.read(a)
		if ok != wok || got != want {
			t.Fatalf("step %d: Read(%d) = %#x,%v, model %#x,%v", step, a, got, ok, want, wok)
		}
	}
	checkBacking(t, m)
}

// runModelOps decodes data into a sequence of Memory operations, applies
// each to two memories and their flat models (two, so that a snapshot of
// one is restored onto the other), and checks they agree after every
// step.
func runModelOps(t *testing.T, data []byte) {
	pos := 0
	next := func() int64 {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int64(data[pos-1])
	}
	pairs := [2]*pair{
		{m: NewMemory(modelSize, 40), f: newFlat(modelSize, 40)},
		{m: NewMemory(modelSize, 40), f: newFlat(modelSize, 40)},
	}
	var snaps []*snapPair
	p := pairs[0]
	// edges are the addresses where behaviour changes hands.
	edges := func() []int64 {
		m := p.m
		stackBase := m.size - int64(len(m.stack))
		return []int64{-1, 0, 1, m.globalEnd - 1, m.globalEnd, m.brk - 1, m.brk, m.brk + 1,
			int64(len(m.lo)), int64(len(m.lo)) + 1, (m.brk + m.sp) / 2, 5*pageWords - 1, 5 * pageWords,
			stackBase - 1, stackBase, m.sp - 1, m.sp, m.sp + 1, m.size - 1, m.size}
	}
	addr := func() int64 {
		e := edges()
		a := e[next()%int64(len(e))]
		switch next() % 4 {
		case 0:
			a += next() % 3
		case 1:
			a -= next()
		case 2:
			a += next() << 2
		}
		return a
	}
	count := func() int64 {
		return []int64{0, 1, 2, minExtentWords - 1, minExtentWords, minExtentWords + 1, pageWords + 3, 3000, modelSize}[next()%9]
	}
	for step := 0; pos < len(data); step++ {
		m, f := p.m, p.f
		probes := edges()
		full := false
		switch next() % 13 {
		case 0: // the other memory
			p = pairs[next()%2]
			continue
		case 1, 2: // store
			a, v := addr(), uint64(next())<<8|uint64(step)|1
			ok := m.Write(a, v)
			if _, wok := f.read(a); ok != wok {
				t.Fatalf("step %d: Write(%d) ok=%v, model %v", step, a, ok, wok)
			} else if ok {
				f.copyIn(a, []uint64{v})
			}
			probes = append(probes, a)
		case 3: // heap allocation, sometimes of a corrupted size
			n := []int64{0, 1, 17, 300, 5000, -1, modelSize}[next()%7]
			got, ok := m.Alloc(n)
			if want, wok := f.alloc(n); ok != wok || got != want {
				t.Fatalf("step %d: Alloc(%d) = %d,%v, model %d,%v", step, n, got, ok, want, wok)
			}
		case 4: // push a frame
			n := []int64{0, 1, 9, 70, 600, -1, modelSize}[next()%7]
			got, ok := m.PushFrame(n)
			if want, wok := f.pushFrame(n); ok != wok || got != want {
				t.Fatalf("step %d: PushFrame(%d) = %d,%v, model %d,%v", step, n, got, ok, want, wok)
			} else if ok {
				p.frames = append(p.frames, n)
			}
		case 5: // pop the newest frame
			if k := len(p.frames) - 1; k >= 0 {
				m.PopFrame(p.frames[k])
				f.sp += p.frames[k]
				p.frames = p.frames[:k]
			}
		case 6: // message in
			a, data := addr(), make([]uint64, count())
			for i := range data {
				data[i] = uint64(step)<<16 | uint64(i) | 1
			}
			if ok, wok := m.CopyIn(a, data), f.copyIn(a, data); ok != wok {
				t.Fatalf("step %d: CopyIn(%d, %d words) ok=%v, model %v", step, a, len(data), ok, wok)
			}
			probes = append(probes, a, a+int64(len(data))-1, a+int64(len(data)))
		case 7: // message out, as a copy and as a view
			a, n := addr(), count()
			out, ok := m.CopyOut(a, n)
			view, vok := m.Words(a, n)
			if wok := f.in(a, n); ok != wok || vok != wok {
				t.Fatalf("step %d: CopyOut/Words(%d, %d) ok=%v/%v, model %v", step, a, n, ok, vok, wok)
			} else if ok && (!slices.Equal(out, f.words[a:a+n]) || !slices.Equal(view, f.words[a:a+n])) {
				t.Fatalf("step %d: CopyOut/Words(%d, %d) differ from the model", step, a, n)
			}
		case 8: // snapshot, into a fresh one or over an old one
			var sp *snapPair
			if k := next(); len(snaps) < 10 && k%3 != 0 || len(snaps) == 0 {
				sp = &snapPair{fs: &flatSnap{}}
				snaps = append(snaps, sp)
			} else {
				sp = snaps[k%int64(len(snaps))]
			}
			sp.s = m.Snapshot(sp.s)
			f.snapshot(sp.fs)
			sp.frames = slices.Clone(p.frames)
		case 9, 10: // restore
			if len(snaps) == 0 {
				continue
			}
			sp := snaps[next()%int64(len(snaps))]
			st := m.RestoreSnap(sp.s)
			f.restore(sp.fs)
			nonzero := int64(0)
			for _, w := range sp.fs.words {
				if w != 0 {
					nonzero += 8
				}
			}
			if st.Bytes < nonzero {
				t.Fatalf("step %d: a restore of %d bytes cannot hold %d non-zero ones", step, st.Bytes, nonzero)
			}
			if len(m.lo) != len(sp.s.lo) || len(m.stack) != len(sp.s.hi) || len(m.gap) != len(sp.s.gap) {
				t.Fatalf("step %d: restored memory is not backed as its snapshot is", step)
			}
			p.frames = slices.Clone(sp.frames)
			full = true
		case 11: // reset, sometimes to another program's shape
			size, globals := int64(modelSize), []int64{40, 0, 700}[next()%3]
			if next()%4 == 0 {
				size = modelSize / 2
			}
			m.Reset(size, globals)
			f.reset(size, globals)
			p.frames = p.frames[:0]
			full = true
		case 12: // load
			probes = append(probes, addr())
		}
		checkSame(t, step, p, probes, full || step%32 == 0)
	}
}

// modelOps is a seeded operation stream for runModelOps.
func modelOps(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestMemoryMatchesFlat is the differential test of the backed-by-what-
// is-written Memory against the flat reference.
func TestMemoryMatchesFlat(t *testing.T) {
	seeds := int64(64)
	if testing.Short() {
		seeds = 16
	}
	for seed := int64(1); seed <= seeds; seed++ {
		runModelOps(t, modelOps(seed, 1500))
	}
}

// FuzzMemoryMatchesFlat explores the same operation streams under go test
// -fuzz; its seed corpus runs with the ordinary tests.
func FuzzMemoryMatchesFlat(f *testing.F) {
	for seed := int64(1000); seed < 1008; seed++ {
		f.Add(modelOps(seed, 600))
	}
	// A wild store, a snapshot holding its page, heap grown over the page,
	// and a restore that must take it back out of the extent.
	f.Add([]byte{1, 10, 3, 7, 8, 1, 3, 4, 1, 5, 2, 200, 9, 0, 1})
	f.Fuzz(runModelOps)
}
