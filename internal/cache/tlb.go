package cache

import (
	"fmt"
	"math/bits"
)

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Entries is the number of translations held. The MIPS R10000 has a
	// 64-entry TLB.
	Entries int
	// PageSize is the page size in bytes. Must be a power of two. The
	// Origin2000 default is 16 KB; the paper's experiments use 64 KB and
	// 256 KB pages.
	PageSize int
}

// Validate reports whether the configuration is usable.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: entries must be positive, got %d", c.Entries)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("tlb: page size %d must be a positive power of two", c.PageSize)
	}
	return nil
}

// TLBStats accumulates TLB event counts.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an untouched TLB.
func (s TLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TLB is a fully-associative translation buffer model with FIFO
// replacement (the R10000's TLB uses random replacement; FIFO is a
// deterministic stand-in with the same capacity behavior and O(1) cost).
//
// The resident set is held in a small open-addressing hash table rather
// than a Go map: the translation probe runs whenever a reference leaves
// its stream's page, and the map lookup dominated the simulator's
// host-time profile (ISSUE 4). Replacement decisions, miss counts and
// access counts are identical to the map-based model. Like the cache, the
// TLB memoizes nothing itself: Access is a plain probe, and same-page
// runs are accelerated by the caller's TLBLane.
type TLB struct {
	cfg       TLBConfig
	pageShift uint
	// slots is the open-addressing (linear probing, backward-shift
	// deletion) hash set of resident page numbers; slotMask = len-1.
	// A slot is empty when it holds memoNone (no simulated address
	// shifts down to it), so the probe loop is one load and two
	// compares per step and the table is half the size of a
	// page+bool layout.
	slots    []uint64
	slotMask uint64
	slotBits uint
	// ring is the FIFO eviction order over resident pages.
	ring []uint64
	head int
	// accesses and misses are kept as direct fields (not a TLBStats) so
	// the counter bump in Access stays within the inlining budget;
	// Stats assembles the exported view.
	accesses uint64
	misses   uint64
	// none is the slot an empty lane points at: it always holds memoNone,
	// which no page number equals.
	none uint64
}

// A TLBLane is a per-stream page memo for the batched access kernels:
// each access stream of a kernel holds its own lane, so interleaved
// streams keep one hot page each. A lane hit counts the access and does
// nothing else — exactly what a plain Access of a resident page does
// (hits do not mutate FIFO state) — so behavior is bit-identical.
//
// Like a cache Lane, a TLBLane is self-validating and needs no registry:
// it points at the resident-set slot that held its page when the probe
// last resolved it, and a hit is "that slot holds the page being
// translated". Slots hold resident pages only, so a passing test proves
// the page is resident whatever happened to the table since; eviction,
// backward-shift deletion and Flush can only make the test fail, which
// sends the access to the probe. A lane must be emptied with AttachLane
// before its first use (the zero value points nowhere).
type TLBLane struct {
	slot *uint64
}

// Hit reports whether the lane's slot holds page, which proves page
// resident. It counts nothing: kernels that carry the access counter in
// a register (see Accesses) pair it with their own increment.
func (l *TLBLane) Hit(page uint64) bool { return *l.slot == page }

// AttachLane empties l for use with this TLB; the next access through it
// takes the probe and captures its slot.
func (t *TLB) AttachLane(l *TLBLane) { l.slot = &t.none }

// DetachLanes does nothing: lanes hold no registration to undo. It
// remains for the frozen cmd/bench probes, its only caller.
func (t *TLB) DetachLanes() {}

// AccessLane is Access with the lane as a private memo: identical
// counters and miss decisions, but a repeat touch of the lane's page
// skips the probe.
func (t *TLB) AccessLane(l *TLBLane, a Addr) bool {
	if t.LaneHit(l, a) {
		return false
	}
	return t.LaneRefill(l, a)
}

// LaneHit is the inlinable half of AccessLane: it counts the access and
// reports whether it hit the lane (hits have no further effect). On
// false the caller must finish the translation with LaneRefill (the
// access is already counted). The split lets a kernel's per-element
// loop resolve lane hits without any function call.
func (t *TLB) LaneHit(l *TLBLane, a Addr) bool {
	t.accesses++
	return l.Hit(uint64(a) >> t.pageShift)
}

// LaneRefill completes a translation whose LaneHit returned false: the
// plain probe, after which the lane points at the slot the probe ended
// on. It reports whether the translation missed the TLB. (When the miss's
// eviction backward-shifts the new page out of that slot the lane is
// merely stale: its next test fails into the probe again.)
func (t *TLB) LaneRefill(l *TLBLane, a Addr) bool {
	i, miss := t.translate(uint64(a) >> t.pageShift)
	l.slot = &t.slots[i]
	return miss
}

// NewTLB builds a TLB. It panics on invalid configuration; geometries
// come from static machine presets.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Size the table at >= 4x entries (power of two, at least 8) so probe
	// chains stay short even with the full resident set.
	slotBits := uint(max(3, bits.Len(uint(4*cfg.Entries-1))))
	slots := make([]uint64, 1<<slotBits)
	for i := range slots {
		slots[i] = memoNone
	}
	return &TLB{
		cfg:       cfg,
		pageShift: uint(bits.Len(uint(cfg.PageSize - 1))),
		slots:     slots,
		slotMask:  uint64(1<<slotBits - 1),
		slotBits:  slotBits,
		ring:      make([]uint64, 0, cfg.Entries),
		none:      memoNone,
	}
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Stats returns a snapshot of the event counters.
func (t *TLB) Stats() TLBStats {
	return TLBStats{Accesses: t.accesses, Misses: t.misses}
}

// PageShift returns log2 of the page size: a>>PageShift is the page
// number TLBLane.Hit takes.
func (t *TLB) PageShift() uint { return t.pageShift }

// Accesses returns the access counter, and SetAccesses stores it back:
// a kernel loop carries the counter in a register between its slow
// steps, pairing each TLBLane.Hit with its own increment.
func (t *TLB) Accesses() uint64     { return t.accesses }
func (t *TLB) SetAccesses(n uint64) { t.accesses = n }

// home returns page's preferred slot index (Fibonacci hashing).
func (t *TLB) home(page uint64) uint64 {
	return (page * 0x9E3779B97F4A7C15) >> (64 - t.slotBits)
}

// remove deletes page (present) from the resident set using
// backward-shift deletion, which keeps probe chains gap-free without
// tombstones.
func (t *TLB) remove(page uint64) {
	mask := t.slotMask
	i := t.home(page)
	for t.slots[i] != page {
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		pg := t.slots[j]
		if pg == memoNone {
			break
		}
		h := t.home(pg)
		// Entry at j may shift back to i only if its home position does
		// not lie strictly inside (i, j].
		if ((j - h) & mask) >= ((j - i) & mask) {
			t.slots[i] = pg
			i = j
		}
	}
	t.slots[i] = memoNone
}

// translate looks page up, refilling on a miss, and returns the index of
// the slot the probe ended on plus whether the translation missed. It
// does not touch the access counter.
func (t *TLB) translate(page uint64) (slot uint64, miss bool) {
	// One probe serves both outcomes: it either finds the page (hit) or
	// ends on the empty slot where the page belongs (miss refill site).
	i := t.home(page)
	for {
		pg := t.slots[i]
		if pg == page {
			return i, false
		}
		if pg == memoNone {
			break
		}
		i = (i + 1) & t.slotMask
	}
	// Miss: place the page in the empty slot the probe found, then
	// retire the FIFO victim. Inserting before removing is safe — the
	// hash table's internal layout is not observable, and backward-shift
	// deletion preserves the probe-chain invariant either way.
	t.misses++
	t.slots[i] = page
	if len(t.ring) < t.cfg.Entries {
		t.ring = append(t.ring, page)
	} else {
		evicted := t.ring[t.head]
		t.remove(evicted)
		t.ring[t.head] = page
		t.head++
		if t.head == t.cfg.Entries {
			t.head = 0
		}
	}
	return i, true
}

// Access simulates a translation of address a and reports whether it
// missed.
func (t *TLB) Access(a Addr) bool {
	t.accesses++
	_, miss := t.translate(uint64(a) >> t.pageShift)
	return miss
}

// Flush drops all translations.
func (t *TLB) Flush() {
	for i := range t.slots {
		t.slots[i] = memoNone
	}
	t.ring = t.ring[:0]
	t.head = 0
}
