package check

import (
	"math/bits"

	"repro/internal/cache"
)

// This file holds the unmemoized reference models that shadow the fast
// cache and TLB in paranoid mode. They implement the same abstract
// machines — a set-associative write-back LRU cache and a fully-
// associative FIFO TLB — with the most naive data structures available:
// a plain struct per line, a Go map for the TLB resident set, no memo
// entries, no packed meta words, no open addressing. Every observable
// (hit/miss, writeback and its address, event counts, replacement
// decisions) must match the fast models bit for bit; any divergence is a
// bug in the fast path's memo/packing layer and is reported as a
// Violation by the machine's paranoid hooks.
//
// Replacement-policy details replicated from the fast models:
//
//   - Cache LRU tick: the access counter itself, incremented before use,
//     so the first access stamps lru=1 and lru 0 marks an invalid way.
//   - Cache victim: the first invalid way in way order; otherwise the
//     way with the strictly lowest lru, first way winning ties.
//   - TLB replacement: FIFO over resident pages (ring of Entries pages);
//     hits do not reorder the ring.

// refLine is one cache line in the reference model: the naive struct the
// fast path's packed meta word replaced.
type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// RefCacheResult reports one reference-cache access.
type RefCacheResult struct {
	Hit           bool
	WriteBack     bool
	WritebackAddr cache.Addr
}

// RefCounts are the reference model's event counters.
type RefCounts struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// RefCache is the unmemoized reference cache model.
type RefCache struct {
	cfg       cache.Config
	sets      int
	lineShift uint
	tagShift  uint
	lines     []refLine // sets*ways, set-major
	counts    RefCounts
}

// NewRefCache builds a reference cache with the given geometry. Like the
// fast model it panics on an invalid configuration (geometries come from
// validated machine configs).
func NewRefCache(cfg cache.Config) *RefCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Ways)
	return &RefCache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.Len(uint(cfg.LineSize - 1))),
		tagShift:  uint(bits.Len(uint(sets - 1))),
		lines:     make([]refLine, sets*cfg.Ways),
	}
}

// Counts returns the reference model's event counters.
func (c *RefCache) Counts() RefCounts { return c.counts }

// Access simulates one access to address a; write marks the line dirty.
func (c *RefCache) Access(a cache.Addr, write bool) RefCacheResult {
	c.counts.Accesses++
	tick := c.counts.Accesses
	lineNum := uint64(a) >> c.lineShift
	set := int(lineNum & uint64(c.sets-1))
	tag := lineNum >> c.tagShift
	ways := c.cfg.Ways
	base := set * ways

	// Probe for a hit.
	for i := 0; i < ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			ln.lru = tick
			if write {
				ln.dirty = true
			}
			return RefCacheResult{Hit: true}
		}
	}

	// Miss: pick the victim — first invalid way, else strictly-lowest
	// lru with the first way winning ties.
	c.counts.Misses++
	victim := &c.lines[base]
	for i := 0; i < ways; i++ {
		ln := &c.lines[base+i]
		if !ln.valid {
			victim = ln
			break
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	var res RefCacheResult
	if victim.valid && victim.dirty {
		res.WriteBack = true
		res.WritebackAddr = cache.Addr((victim.tag<<c.tagShift | uint64(set)) << c.lineShift)
		c.counts.Writebacks++
	}
	victim.valid = true
	victim.dirty = write
	victim.tag = tag
	victim.lru = tick
	return res
}

// Invalidate drops the line holding a, if present, and reports whether
// it was present and dirty.
func (c *RefCache) Invalidate(a cache.Addr) (present, dirty bool) {
	lineNum := uint64(a) >> c.lineShift
	set := int(lineNum & uint64(c.sets-1))
	tag := lineNum >> c.tagShift
	base := set * c.cfg.Ways
	for i := 0; i < c.cfg.Ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			d := ln.dirty
			*ln = refLine{}
			return true, d
		}
	}
	return false, false
}

// Flush invalidates every line and returns the number of dirty lines
// dropped.
func (c *RefCache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = refLine{}
	}
	return dirty
}

// RefTLBCounts are the reference TLB's event counters.
type RefTLBCounts struct {
	Accesses uint64
	Misses   uint64
}

// RefTLB is the unmemoized reference TLB model: a map resident set plus
// a FIFO ring, exactly the structure the fast model's open-addressing
// table replaced.
type RefTLB struct {
	cfg       cache.TLBConfig
	pageShift uint
	resident  map[uint64]bool
	ring      []uint64
	head      int
	counts    RefTLBCounts
}

// NewRefTLB builds a reference TLB. Panics on invalid configuration.
func NewRefTLB(cfg cache.TLBConfig) *RefTLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &RefTLB{
		cfg:       cfg,
		pageShift: uint(bits.Len(uint(cfg.PageSize - 1))),
		resident:  make(map[uint64]bool, cfg.Entries),
		ring:      make([]uint64, 0, cfg.Entries),
	}
}

// Counts returns the reference model's event counters.
func (t *RefTLB) Counts() RefTLBCounts { return t.counts }

// Access simulates a translation of address a and reports whether it
// missed.
func (t *RefTLB) Access(a cache.Addr) bool {
	t.counts.Accesses++
	page := uint64(a) >> t.pageShift
	if t.resident[page] {
		return false
	}
	t.counts.Misses++
	t.resident[page] = true
	if len(t.ring) < t.cfg.Entries {
		t.ring = append(t.ring, page)
		return true
	}
	evicted := t.ring[t.head]
	delete(t.resident, evicted)
	t.ring[t.head] = page
	t.head++
	if t.head == t.cfg.Entries {
		t.head = 0
	}
	return true
}

// Flush drops all translations.
func (t *RefTLB) Flush() {
	clear(t.resident)
	t.ring = t.ring[:0]
	t.head = 0
}
