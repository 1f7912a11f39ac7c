// Package cache provides deterministic per-processor cache and TLB
// models for the DSM machine simulator.
//
// The cache is a set-associative, write-back, write-allocate cache with
// LRU replacement, modeled at line granularity: it tracks tags and dirty
// bits but not data (the simulator keeps real data in ordinary Go slices;
// the cache model exists purely to count hits, misses, and writebacks).
// The TLB is a fully-associative FIFO translation buffer modeled at page
// granularity.
//
// Both models are private to one simulated processor and are therefore
// free of locks; the coherence protocol between processors is priced
// separately by package coherence.
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated physical address in the machine's global address
// space.
type Addr uint64

// Config describes a cache's geometry.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the line (block) size in bytes. Must be a power of two.
	LineSize int
	// Ways is the set associativity. The Origin2000's L2 is 2-way.
	Ways int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size, line size and ways must be positive: %+v", c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineSize)
	}
	if c.Size%(c.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line size * ways (%d)",
			c.Size, c.LineSize*c.Ways)
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// AccessResult describes what happened on one cache access.
type AccessResult struct {
	// Hit is true when the line was present.
	Hit bool
	// WritebackAddr is the address of a dirty line evicted to make room,
	// valid only when WriteBack is true.
	WritebackAddr Addr
	// WriteBack is true when a dirty victim was evicted.
	WriteBack bool
}

// Stats accumulates cache event counts. Hits is derived (every access
// either hits or misses), so the hot path maintains only two counters;
// Cache.Stats fills Hits in.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// A line packs its state into two words so the probe loop does one load
// and one masked compare per way, and the whole array stays a third
// smaller in host memory than the naive struct (the lines array is the
// hottest data structure in the simulator).
//
// meta layout: bit 0 = valid, bit 1 = dirty, bits 2.. = tag. Simulated
// addresses come from the address space allocator, which hands out a few
// megabytes starting at the page size, so tags are far below the 62 bits
// available.
type line struct {
	meta uint64
	// lru is a per-set sequence number; the smallest is the LRU victim.
	// Valid lines always have lru >= 1 (the tick starts at 1), so 0
	// doubles as the "invalid way" marker in victim selection.
	lru uint64
}

const (
	lineValid  = 1 << 0
	lineDirty  = 1 << 1
	lineTagLSB = 2
)

// Cache is a set-associative write-back cache model.
//
// The LRU sequence number handed to lines is stats.Accesses: it
// increments exactly once per access, so it is the same sequence a
// dedicated tick counter would produce, with one fewer counter update on
// the hot path.
//
// The cache itself memoizes nothing: Access is a plain set probe, which
// makes it the definition the reference model (check.RefCache) and the
// stream-equivalence tests compare against. Same-line runs are
// accelerated by the caller's Lane, the only memo mechanism.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	// tagShift is log2(sets), precomputed at construction: every access
	// needs it to split a line number into set index and tag, and
	// recomputing it with a loop per access dominated the simulator's
	// host-time profile (ISSUE 4).
	tagShift uint
	setMask  uint64
	// twoWay selects the unrolled probe for the ubiquitous 2-way
	// geometry (the Origin2000's L2); other associativities take the
	// general loop.
	twoWay bool
	lines  []line // sets*ways, set-major
	stats  Stats
}

// memoNone marks an empty lane or TLB slot: no simulated address shifts
// down to this line or page number (the address space allocates a few
// megabytes upward from the page size).
const memoNone = ^uint64(0)

// New builds a cache with the given geometry. It panics if the
// configuration is invalid; geometries come from static machine presets.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Ways)
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.Len(uint(cfg.LineSize - 1))),
		tagShift:  uint(bits.Len(uint(sets - 1))),
		setMask:   uint64(sets - 1),
		twoWay:    cfg.Ways == 2,
		lines:     make([]line, sets*cfg.Ways),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Hits = s.Accesses - s.Misses
	return s
}

// LineShift returns log2 of the line size: a>>LineShift is the line
// number Lane.Hit takes.
func (c *Cache) LineShift() uint { return c.lineShift }

// Accesses returns the access counter (which is also the LRU clock), and
// SetAccesses stores it back: a kernel loop carries the counter in a
// register between its slow steps, passing each Lane.Hit the value the
// access it tests would be counted as.
func (c *Cache) Accesses() uint64     { return c.stats.Accesses }
func (c *Cache) SetAccesses(n uint64) { c.stats.Accesses = n }

// LineAddr returns the line-aligned address containing a.
func (c *Cache) LineAddr(a Addr) Addr {
	return a &^ Addr(c.cfg.LineSize-1)
}

// accessHit is the shared lane-hit result; returning a prebuilt value
// keeps AccessLane's fast path within the inlining budget.
var accessHit = AccessResult{Hit: true}

// Access simulates one access to address a. write marks the line dirty.
// The returned result reports hit/miss and any dirty eviction.
func (c *Cache) Access(a Addr, write bool) AccessResult {
	c.stats.Accesses++
	res, _ := c.lookup(uint64(a)>>c.lineShift, write)
	return res
}

// lookup completes an already counted access to line lineNum: set probe,
// then fill on a miss. It also returns the slot now holding the line, for
// AccessLaneMiss to capture.
func (c *Cache) lookup(lineNum uint64, write bool) (AccessResult, *line) {
	tick := c.stats.Accesses
	set := int(lineNum & c.setMask)
	tag := lineNum >> c.tagShift
	// want is the meta word of a valid, clean line with this tag; masking
	// the dirty bit out of a candidate makes the hit test one compare.
	want := tag<<lineTagLSB | lineValid

	var hit, victim *line
	if c.twoWay {
		// Unrolled probe for the 2-way geometry every machine preset
		// uses. Victim choice matches the general loop: first invalid
		// way (way 0 preferred), else the lower LRU sequence number.
		base := set * 2
		s := c.lines[base : base+2 : base+2]
		l0, l1 := &s[0], &s[1]
		m0, m1 := l0.meta, l1.meta
		switch {
		case m0&^uint64(lineDirty) == want:
			hit = l0
		case m1&^uint64(lineDirty) == want:
			hit = l1
		case m0&lineValid == 0:
			victim = l0
		case m1&lineValid == 0:
			victim = l1
		case l1.lru < l0.lru:
			victim = l1
		default:
			victim = l0
		}
	} else {
		hit, victim = c.probe(set, want)
	}
	if hit != nil {
		hit.lru = tick
		if write {
			hit.meta |= lineDirty
		}
		return AccessResult{Hit: true}, hit
	}

	// Miss: fill the victim way.
	c.stats.Misses++
	ln := victim
	res := AccessResult{}
	if ln.meta&(lineValid|lineDirty) == lineValid|lineDirty {
		res.WriteBack = true
		res.WritebackAddr = c.reconstruct(ln.meta>>lineTagLSB, set)
		c.stats.Writebacks++
	}
	nm := want
	if write {
		nm |= lineDirty
	}
	ln.meta = nm
	ln.lru = tick
	return res, ln
}

// A Lane is a per-stream line memo for the batched access kernels
// (machine's stream engine): each concurrent access stream of a kernel —
// the sequential key sweep, the histogram gather, the scattered store —
// holds its own Lane, so interleaved streams keep one hot line each and a
// same-line run costs one compare per access after its first touch (this
// is the run-coalescing fast path: the first touch of a line is simulated
// exactly, the remaining touches of the run take the lane hit).
//
// A Lane is self-validating, so it needs no registry and no
// invalidation hooks: the fast path re-checks that the slot it points at
// still holds a valid line with the lane's tag. The pointed-at slot
// belongs to one set forever and the lane's line number fixes both the
// set and the tag, so a passing check identifies exactly the lane's line
// — a slot refilled with any other line, an invalidated line, or a
// flushed cache all fail the compare and fall through to the probe. A
// lane hit performs the same stats/LRU/dirty updates as the probe it
// skips, so behavior is bit-identical to plain Access (FuzzAccessOracle
// drives both side by side).
type Lane struct {
	lineNum uint64
	// want is the meta word of a valid, clean line with lineNum's tag
	// (precomputed at capture so the hit test is one masked compare).
	want uint64
	ln   *line
}

// Reset empties the lane; the next access through it takes the probe and
// recaptures.
func (l *Lane) Reset() { l.lineNum = memoNone; l.ln = nil; l.want = 0 }

// AccessLane is Access with the lane as a private memo: identical
// observable behavior (stats, LRU, dirty bits, hit/miss/writeback), but
// a repeat touch of the lane's line skips the probe.
func (c *Cache) AccessLane(l *Lane, a Addr, write bool) AccessResult {
	if c.LaneHit(l, a, write) {
		return accessHit
	}
	return c.AccessLaneMiss(l, a, write)
}

// LaneHit is the inlinable half of AccessLane: it counts the access and
// completes it if it hits the lane, reporting whether it did. On false
// the caller must finish the access with AccessLaneMiss (the access is
// already counted; calling neither would desynchronize the stats). The
// split lets a kernel's per-element loop resolve lane hits without any
// function call.
func (c *Cache) LaneHit(l *Lane, a Addr, write bool) bool {
	c.stats.Accesses++
	return l.Hit(uint64(a)>>c.lineShift, c.stats.Accesses, write)
}

// Hit is the lane test itself, for a caller that counts accesses in a
// register (see Cache.Accesses): if lineNum is the lane's line and the
// slot still holds it, the access numbered tick is completed (LRU stamp,
// dirty bit) and Hit reports true; otherwise nothing changes.
func (l *Lane) Hit(lineNum, tick uint64, write bool) bool {
	if lineNum == l.lineNum && l.ln.meta&^uint64(lineDirty) == l.want {
		ln := l.ln
		ln.lru = tick
		if write {
			ln.meta |= lineDirty
		}
		return true
	}
	return false
}

// Stamp completes access number tick to the lane's line without testing
// anything. The caller must know the test would pass — nothing that can
// evict or invalidate a line ran since a Hit of the same line passed —
// and, for a write stream, that that Hit already marked the line dirty.
func (l *Lane) Stamp(tick uint64) { l.ln.lru = tick }

// AccessLaneMiss completes an access whose LaneHit returned false: the
// plain probe, after which the lane names the line just touched.
func (c *Cache) AccessLaneMiss(l *Lane, a Addr, write bool) AccessResult {
	lineNum := uint64(a) >> c.lineShift
	res, ln := c.lookup(lineNum, write)
	l.lineNum = lineNum
	l.ln = ln
	l.want = lineNum>>c.tagShift<<lineTagLSB | lineValid
	return res
}

// probe is the general-associativity one-pass hit/victim scan: it
// returns the hitting line, or the victim (first invalid way, else the
// lowest-LRU way). Valid lines always have lru >= 1, so oldest == 0
// marks an invalid-way victim that no valid line may displace.
func (c *Cache) probe(set int, want uint64) (hit, victim *line) {
	ways := c.cfg.Ways
	base := set * ways
	s := c.lines[base : base+ways : base+ways]
	var oldest uint64
	for i := range s {
		ln := &s[i]
		m := ln.meta
		if m&lineValid == 0 {
			if victim == nil || oldest != 0 {
				victim = ln
				oldest = 0
			}
			continue
		}
		if m&^uint64(lineDirty) == want {
			return ln, nil
		}
		if victim == nil || (oldest != 0 && ln.lru < oldest) {
			victim = ln
			oldest = ln.lru
		}
	}
	return nil, victim
}

// Contains reports whether the line holding a is currently cached.
func (c *Cache) Contains(a Addr) bool {
	lineNum := uint64(a) >> c.lineShift
	set := int(lineNum & c.setMask)
	tag := lineNum >> c.tagShift
	want := tag<<lineTagLSB | lineValid
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		if c.lines[base+i].meta&^uint64(lineDirty) == want {
			return true
		}
	}
	return false
}

// Invalidate drops the line holding a, if present, and reports whether it
// was dirty (the caller prices the resulting writeback transaction).
func (c *Cache) Invalidate(a Addr) (present, dirty bool) {
	lineNum := uint64(a) >> c.lineShift
	set := int(lineNum & c.setMask)
	tag := lineNum >> c.tagShift
	want := tag<<lineTagLSB | lineValid
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		ln := &c.lines[base+i]
		if ln.meta&^uint64(lineDirty) == want {
			d := ln.meta&lineDirty != 0
			ln.meta = 0
			return true, d
		}
	}
	return false, false
}

// Flush invalidates every line and returns the number of dirty lines
// dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].meta&(lineValid|lineDirty) == lineValid|lineDirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}

func (c *Cache) reconstruct(tag uint64, set int) Addr {
	lineNum := tag<<c.tagShift | uint64(set)
	return Addr(lineNum << c.lineShift)
}
