// Package fpm implements the runtime half of the paper's Fault Propagation
// Module: the contamination hash table that maps corrupted memory locations
// to their pristine values (paper §3.2), and the message-header records used
// to carry contamination metadata across MPI process boundaries (paper
// Fig. 4).
//
// Invariant maintained by the table: a location address is present if and
// only if the memory word at that address differs from the word a fault-free
// execution would hold there, and the stored value is that fault-free word.
// Stores that write a value equal to the pristine value therefore *cleanse*
// the location (paper Table 1, row 2), which is what separates this exact
// tracker from an overestimating taint analysis.
package fpm

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// tableGen hands out process-unique snapshot generations, mirroring the
// vm memory scheme: a recycled snapshot whose backing was recaptured is
// detected by gen mismatch instead of trusted as a stale restore base.
var tableGen atomic.Uint64

// Table is the contamination hash table of one process: corrupted word
// address -> pristine value. It is an open-addressed linear-probing table
// (the fpm_fetch/fpm_store fast path runs once per instrumented memory
// access, so lookup cost matters more than space): power-of-two slot count,
// Fibonacci hashing, and backward-shift deletion so Cleanse leaves no
// tombstones to slow later probes. The zero value is not usable; call
// NewTable.
type Table struct {
	keys []int64
	vals []uint64
	// n is the number of occupied slots (excluding the sentinel entry).
	n     int
	shift uint // 64 - log2(len(keys)): Fibonacci hash shift
	// The empty-slot marker is math.MinInt64; an entry for that address —
	// unreachable through the VM (all VM addresses are in-bounds, hence
	// non-negative) but accepted defensively — lives out of band.
	hasMin bool
	minVal uint64
	// peak tracks the maximum number of simultaneously contaminated
	// locations observed, for Fig. 7f-style reporting.
	peak int
	// everContaminated records whether any location was ever contaminated,
	// which distinguishes Vanished from ONA outcomes even when later
	// stores cleanse everything.
	everContaminated bool

	// Delta-restore state: journal holds the address of every logical
	// transition (insert, value change, removal) since the table last
	// equalled base, bounded by tableJournalCap — overflow flips
	// journalFull and the next restore falls back to the verbatim copy.
	// Replaying "make this table agree with the snapshot at address k"
	// for the journalled keys is idempotent and order-independent, which
	// is what lets chained journals union safely.
	journal     []int64
	journalFull bool
	scratchKeys []int64
	base        *TableSnap
	baseGen     uint64
}

const (
	emptySlot = math.MinInt64
	// fibMult is 2^64 / phi, the multiplicative hashing constant.
	fibMult = 0x9E3779B97F4A7C15
	// tableMinSlots sizes a fresh table; most experiments contaminate at
	// most a few dozen locations.
	tableMinSlots = 32
	// tableResetCap bounds the capacity a Reset retains: a pathological
	// experiment must not pin a huge table inside a long-lived worker pool.
	tableResetCap = 1 << 15
	// tableJournalCap bounds the per-epoch dirty-key journal; experiments
	// that churn more contamination than this restore by full copy.
	tableJournalCap = 512
	// tableDeltaMax bounds the total replay length across a chain of
	// journals; past it the verbatim copy is cheaper.
	tableDeltaMax = 2048
	// tableChainHops bounds snapshot-chain walks.
	tableChainHops = 64
)

// NewTable returns an empty contamination table.
func NewTable() *Table {
	t := &Table{}
	t.initSlots(tableMinSlots)
	return t
}

func (t *Table) initSlots(slots int) {
	t.keys = make([]int64, slots)
	t.vals = make([]uint64, slots)
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	t.shift = 64 - uint(bits.Len(uint(slots-1)))
	t.n = 0
}

func (t *Table) home(key int64) int {
	return int((uint64(key) * fibMult) >> t.shift)
}

// slot probes for key: it returns the key's slot when present, otherwise
// the empty slot where it would be inserted.
func (t *Table) slot(key int64) (int, bool) {
	mask := len(t.keys) - 1
	i := t.home(key)
	for {
		switch t.keys[i] {
		case key:
			return i, true
		case emptySlot:
			return i, false
		}
		i = (i + 1) & mask
	}
}

// Len returns the current number of contaminated locations (the paper's
// CML, corrupted memory locations).
func (t *Table) Len() int {
	if t.hasMin {
		return t.n + 1
	}
	return t.n
}

// Peak returns the maximum CML observed so far.
func (t *Table) Peak() int { return t.peak }

// Ever reports whether any location was ever contaminated.
func (t *Table) Ever() bool { return t.everContaminated }

// Pristine returns the pristine value for addr and whether addr is
// contaminated.
func (t *Table) Pristine(addr int64) (uint64, bool) {
	if addr == emptySlot {
		return t.minVal, t.hasMin
	}
	i, ok := t.slot(addr)
	if !ok {
		return 0, false
	}
	return t.vals[i], true
}

// PristineOr returns the pristine value for addr, or fallback when addr is
// not contaminated. This implements fpm_fetch: the fallback is the actual
// memory content, which for a clean location is the pristine content.
func (t *Table) PristineOr(addr int64, fallback uint64) uint64 {
	if t.n == 0 && !t.hasMin {
		// Empty table: nothing is contaminated. This is the steady state
		// of golden runs and of every run whose fault has been overwritten,
		// and this call sits on the allreduce contribution path — skip the
		// hash probe entirely.
		return fallback
	}
	if addr == emptySlot {
		if t.hasMin {
			return t.minVal
		}
		return fallback
	}
	i, ok := t.slot(addr)
	if !ok {
		return fallback
	}
	return t.vals[i]
}

// journalKey notes a logical transition at key for delta restores.
func (t *Table) journalKey(key int64) {
	if t.journalFull {
		return
	}
	if len(t.journal) >= tableJournalCap {
		t.journalFull = true
		return
	}
	t.journal = append(t.journal, key)
}

// Record notes that memory at addr now holds a corrupted word whose
// fault-free content is pristine.
func (t *Table) Record(addr int64, pristine uint64) {
	if addr == emptySlot {
		if !t.hasMin || t.minVal != pristine {
			t.journalKey(addr)
		}
		t.hasMin = true
		t.minVal = pristine
	} else {
		i, ok := t.slot(addr)
		if !ok {
			t.journalKey(addr)
			// Grow at 3/4 occupancy, before the insert, so the probe chain
			// found by slot() stays valid.
			if (t.n+1)*4 > len(t.keys)*3 {
				t.grow()
				i, _ = t.slot(addr)
			}
			t.keys[i] = addr
			t.n++
		} else if t.vals[i] != pristine {
			t.journalKey(addr)
		}
		t.vals[i] = pristine
	}
	t.everContaminated = true
	if l := t.Len(); l > t.peak {
		t.peak = l
	}
}

// rawSet installs key -> val without touching the journal or the
// observation history; used only when replaying a restore, where the
// target state's history scalars are copied separately.
func (t *Table) rawSet(key int64, val uint64) {
	i, ok := t.slot(key)
	if !ok {
		if (t.n+1)*4 > len(t.keys)*3 {
			t.grow()
			i, _ = t.slot(key)
		}
		t.keys[i] = key
		t.n++
	}
	t.vals[i] = val
}

// rawDel removes key with backward-shift deletion, without touching the
// journal; the replay counterpart of Cleanse.
func (t *Table) rawDel(key int64) {
	i, ok := t.slot(key)
	if !ok {
		return
	}
	mask := len(t.keys) - 1
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == emptySlot {
			break
		}
		if (j-t.home(k))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = k, t.vals[j]
			i = j
		}
	}
	t.keys[i] = emptySlot
	t.n--
}

func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.initSlots(len(oldKeys) * 2)
	mask := len(t.keys) - 1
	for i, k := range oldKeys {
		if k == emptySlot {
			continue
		}
		j := t.home(k)
		for t.keys[j] != emptySlot {
			j = (j + 1) & mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.n++
	}
}

// Cleanse removes addr from the table (memory now matches the pristine
// execution there). Deletion backward-shifts the following probe chain, so
// no tombstones accumulate across the millions of contaminate/cleanse
// cycles of a campaign.
func (t *Table) Cleanse(addr int64) {
	if addr == emptySlot {
		if t.hasMin {
			t.journalKey(addr)
		}
		t.hasMin = false
		return
	}
	i, ok := t.slot(addr)
	if !ok {
		return
	}
	t.journalKey(addr)
	mask := len(t.keys) - 1
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == emptySlot {
			break
		}
		// The entry at j can fill the hole at i only if its home position
		// precedes i on the cyclic probe path ending at j.
		if (j-t.home(k))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = k, t.vals[j]
			i = j
		}
	}
	t.keys[i] = emptySlot
	t.n--
}

// Observe implements the fpm_store decision for a store whose primary and
// pristine addresses agree: the location becomes contaminated when the
// primary and pristine values differ, and cleansed when they match.
func (t *Table) Observe(addr int64, primary, pristine uint64) {
	if primary == pristine {
		t.Cleanse(addr)
		return
	}
	t.Record(addr, pristine)
}

// Addresses returns the contaminated addresses in ascending order. Intended
// for tests, snapshots and message assembly; O(n log n).
func (t *Table) Addresses() []int64 {
	addrs := make([]int64, 0, t.Len())
	if t.hasMin {
		addrs = append(addrs, emptySlot)
	}
	for _, k := range t.keys {
		if k != emptySlot {
			addrs = append(addrs, k)
		}
	}
	slices.Sort(addrs)
	return addrs
}

// CountInRange returns how many contaminated locations fall within
// [base, base+count).
func (t *Table) CountInRange(base, count int64) int {
	// For small ranges scanning the range beats scanning the table and
	// vice versa; pick by size.
	if count < int64(t.Len()) {
		n := 0
		for a := base; a < base+count; a++ {
			if _, ok := t.Pristine(a); ok {
				n++
			}
		}
		return n
	}
	n := 0
	if t.hasMin && emptySlot >= base && emptySlot < base+count {
		n++
	}
	for _, k := range t.keys {
		if k != emptySlot && k >= base && k < base+count {
			n++
		}
	}
	return n
}

// Reset empties the table and clears the peak and ever-contaminated state.
// The slot array is retained (bounded) so a pooled table re-used across
// experiments does not reallocate.
func (t *Table) Reset() {
	if len(t.keys) > tableResetCap {
		t.initSlots(tableMinSlots)
	} else {
		for i := range t.keys {
			t.keys[i] = emptySlot
		}
		t.n = 0
	}
	t.hasMin = false
	t.peak = 0
	t.everContaminated = false
	t.journal = t.journal[:0]
	t.journalFull = false
	t.base, t.baseGen = nil, 0
}

// TableSnap is a deep copy of a Table's complete state, including the slot
// layout and the observation history (peak CML, ever-contaminated). Because
// the slot array is copied verbatim, a restored table is indistinguishable
// from the original in every observable — including iteration order — so
// snapshot-forked runs stay byte-identical to from-scratch executions.
type TableSnap struct {
	keys   []int64
	vals   []uint64
	n      int
	shift  uint
	hasMin bool
	minVal uint64
	peak   int
	ever   bool

	// Chain link for delta restores, mirroring vm.MemSnap: sincePrev is
	// the dirty-key journal accumulated between prev and this snapshot
	// (sinceFull when it overflowed), and gen/prevGen guard against
	// recycled snapshot objects.
	gen       uint64
	prev      *TableSnap
	prevGen   uint64
	sincePrev []int64
	sinceFull bool
}

// lookup probes the snapshot's slot array for key (same Fibonacci probe
// as the live table, under the snapshot's own shift).
func (s *TableSnap) lookup(key int64) (uint64, bool) {
	mask := len(s.keys) - 1
	i := int((uint64(key) * fibMult) >> s.shift)
	for {
		switch s.keys[i] {
		case key:
			return s.vals[i], true
		case emptySlot:
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// Len returns the number of contaminated locations in the snapshot.
func (s *TableSnap) Len() int {
	if s.hasMin {
		return s.n + 1
	}
	return s.n
}

// Snapshot captures the table into s, reusing s's backing arrays when they
// are large enough. A nil s allocates a fresh snapshot. The table remains
// untouched; later mutations of the table do not alias the snapshot.
func (t *Table) Snapshot(s *TableSnap) *TableSnap {
	if s == nil {
		s = &TableSnap{}
	}
	s.keys = append(s.keys[:0], t.keys...)
	s.vals = append(s.vals[:0], t.vals...)
	s.n = t.n
	s.shift = t.shift
	s.hasMin = t.hasMin
	s.minVal = t.minVal
	s.peak = t.peak
	s.ever = t.everContaminated
	if t.baseValid() && t.base != s {
		s.prev = t.base
		s.prevGen = t.baseGen
		s.sincePrev = append(s.sincePrev[:0], t.journal...)
		s.sinceFull = t.journalFull
	} else {
		s.prev = nil
		s.prevGen = 0
		s.sincePrev = s.sincePrev[:0]
		s.sinceFull = false
	}
	s.gen = tableGen.Add(1)
	t.base, t.baseGen = s, s.gen
	t.journal = t.journal[:0]
	t.journalFull = false
	return s
}

func (t *Table) baseValid() bool {
	return t.base != nil && t.baseGen != 0 && t.base.gen == t.baseGen
}

// deltaKeys assembles into t.scratchKeys every address that may differ
// between the live table and snapshot s: the live journal plus the
// per-hop journals along the chain between s and the base. ok is false
// when the chain is broken, any hop overflowed, or the total replay
// would cost more than a verbatim copy.
func (t *Table) deltaKeys(s *TableSnap) ([]int64, bool) {
	if t.journalFull {
		return nil, false
	}
	keys := append(t.scratchKeys[:0], t.journal...)
	from, to := s, t.base
	if from != to {
		if from.gen < to.gen {
			from, to = to, from
		}
		for hops := 0; from != to; hops++ {
			p := from.prev
			if hops >= tableChainHops || p == nil || p.gen != from.prevGen ||
				p.gen < to.gen || from.sinceFull {
				t.scratchKeys = keys
				return nil, false
			}
			keys = append(keys, from.sincePrev...)
			from = p
		}
	}
	t.scratchKeys = keys
	if len(keys) > tableDeltaMax {
		return nil, false
	}
	return keys, true
}

// RestoreSnap rewinds the table to the snapshotted state and returns the
// bytes it copied. When the table's last-known-equal base snapshot sits
// on the same chain as s and the combined journals are small, the
// restore replays "agree with s at address k" for just the journalled
// keys — idempotent and order-independent, so chained journals union
// safely; the slot layout may then differ from s's, which is fine
// because every Table observable (sorted iteration, counts, probes) is
// layout-independent. Otherwise the slot arrays are copied verbatim.
// The snapshot is not consumed: one snapshot can seed any number of
// restores, and mutating the restored table never writes through into
// the snapshot.
func (t *Table) RestoreSnap(s *TableSnap) int64 {
	if t.baseValid() {
		if keys, ok := t.deltaKeys(s); ok {
			for _, k := range keys {
				if k == emptySlot {
					continue // carried by the hasMin/minVal scalars below
				}
				if pv, ok := s.lookup(k); ok {
					t.rawSet(k, pv)
				} else {
					t.rawDel(k)
				}
			}
			t.hasMin = s.hasMin
			t.minVal = s.minVal
			t.peak = s.peak
			t.everContaminated = s.ever
			t.base, t.baseGen = s, s.gen
			t.journal = t.journal[:0]
			t.journalFull = false
			return int64(len(keys)) * 16
		}
	}
	if len(t.keys) != len(s.keys) {
		t.keys = make([]int64, len(s.keys))
		t.vals = make([]uint64, len(s.vals))
	}
	copy(t.keys, s.keys)
	copy(t.vals, s.vals)
	t.n = s.n
	t.shift = s.shift
	t.hasMin = s.hasMin
	t.minVal = s.minVal
	t.peak = s.peak
	t.everContaminated = s.ever
	t.base, t.baseGen = s, s.gen
	t.journal = t.journal[:0]
	t.journalFull = false
	return int64(len(s.keys)) * 16
}

// Record is one entry of an MPI contamination header: the displacement of a
// contaminated word relative to the start of the message payload, and its
// pristine value (paper Fig. 4).
type MsgRecord struct {
	Displacement int64
	Pristine     uint64
}

// CollectRange assembles the contamination header for an outgoing message
// covering memory [base, base+count): one MsgRecord per contaminated word,
// with displacements relative to base, in ascending order.
func (t *Table) CollectRange(base, count int64) []MsgRecord {
	return t.AppendRange(nil, base, count)
}

// AppendRange is CollectRange appending into recs, so a caller issuing many
// messages can reuse one scratch slice.
func (t *Table) AppendRange(recs []MsgRecord, base, count int64) []MsgRecord {
	if int64(t.Len()) < count {
		start := len(recs)
		if t.hasMin && emptySlot >= base && emptySlot < base+count {
			recs = append(recs, MsgRecord{Displacement: emptySlot - base, Pristine: t.minVal})
		}
		for i, k := range t.keys {
			if k != emptySlot && k >= base && k < base+count {
				recs = append(recs, MsgRecord{Displacement: k - base, Pristine: t.vals[i]})
			}
		}
		added := recs[start:]
		slices.SortFunc(added, func(a, b MsgRecord) int {
			switch {
			case a.Displacement < b.Displacement:
				return -1
			case a.Displacement > b.Displacement:
				return 1
			}
			return 0
		})
		return recs
	}
	for a := base; a < base+count; a++ {
		if p, ok := t.Pristine(a); ok {
			recs = append(recs, MsgRecord{Displacement: a - base, Pristine: p})
		}
	}
	return recs
}

// ApplyRange installs contamination records for an incoming message copied
// to memory at [base, base+count). Every word in the range is first
// considered clean (the incoming payload overwrites whatever was there);
// words named by a record are contaminated unless the payload word already
// equals the pristine value. payload must hold the received words.
func (t *Table) ApplyRange(base int64, payload []uint64, recs []MsgRecord) {
	// The incoming payload overwrites the whole range: stale entries for
	// the range must go, exactly as a local store of a clean value would
	// cleanse a location.
	for a := base; a < base+int64(len(payload)); a++ {
		t.Cleanse(a)
	}
	for _, r := range recs {
		if r.Displacement < 0 || r.Displacement >= int64(len(payload)) {
			continue // malformed record; ignore defensively
		}
		if payload[r.Displacement] == r.Pristine {
			continue // arrived corrupted-flagged but value matches pristine
		}
		t.Record(base+r.Displacement, r.Pristine)
	}
}
