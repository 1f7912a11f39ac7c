package machine

import (
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// This file is the slab arena (DESIGN.md §13): Array backing slices are
// carved out of pooled []uint64 slabs instead of fresh allocations, and
// Machine.Release returns every slab a machine borrowed to one
// process-wide pool. A grid of experiment cells (paperfigs, cmd/bench's
// paper-grid, simd) builds one machine per cell with near-identical array
// footprints, so after the first cells the steady state maps no array
// memory at all (TestArenaReuse, TestArenaBound).
//
// Where the build allows (arena_mmap.go: unix without the race detector)
// slabs of 64 KiB and more are anonymous mappings outside the Go heap, so
// neither borrowed nor idle slab bytes raise the collector's heap goal;
// smaller slabs, and every slab of the other builds (arena_heap.go), are
// made on the heap. The builds differ only in mapSlab/unmapSlab.
//
// The pool holds at most the most slab memory ever borrowed at once, its
// high-water mark. A borrow takes the smallest idle slab of its class or
// a larger one; only when there is none does it map a new slab, after
// unmapping the longest-idle slabs until the new one fits under the mark.
//
// Slabs hold only pointer-free element types (the sorts use uint32 keys
// and int32/int64 bookkeeping), so viewing a []uint64 slab as []T is
// safe for the garbage collector; any other element type silently falls
// back to a plain make.
//
// An Array's Data must not outlive its machine. Release hands the slabs
// to later machines, which zero and overwrite them; a machine dropped
// without Release has its slabs unmapped once the collector finds it
// unreachable (slabList's finalizer), and a Data slice kept past that
// faults.

// ArenaUsage is a snapshot of the process-wide slab pool. Heap-made
// slabs count as mapped too: to map a slab is to take it from the host.
type ArenaUsage struct {
	// InUse is the slab bytes machines hold and have not released.
	InUse int64 `json:"in_use_bytes"`
	// Mapped is the slab bytes the pool owns, borrowed or idle.
	Mapped int64 `json:"mapped_bytes"`
	// HighWater is the most InUse has ever been; Mapped never exceeds it.
	HighWater int64 `json:"high_water_bytes"`
	// Maps and Unmaps count slabs taken from and given back to the host.
	Maps   uint64 `json:"maps"`
	Unmaps uint64 `json:"unmaps"`
}

// ArenaStats returns the slab pool's current usage.
func ArenaStats() ArenaUsage {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	return slabPool.usage
}

// arenaPool is the process-wide free list, bucketed by power-of-two word
// count. Machines borrow under its mutex at array-construction time —
// not on any simulated-access path — so contention is negligible.
type arenaPool struct {
	mu sync.Mutex
	// idle holds each class's idle slabs, longest idle first; tick
	// stamps a slab with when it went idle.
	idle  [48][]idleSlab
	tick  uint64
	usage ArenaUsage
}

type idleSlab struct {
	s     []uint64
	since uint64
}

var slabPool arenaPool

// slabClass returns the smallest power-of-two class holding words ≥ 1
// words.
func slabClass(words int) int { return bits.Len(uint(words - 1)) }

func slabBytes(s []uint64) int64 { return int64(len(s)) * 8 }

// get borrows a slab of at least words words: the smallest idle slab
// that fits, or else a new one of exactly the class, whose memory is
// already zero (fresh).
func (p *arenaPool) get(words int) (s []uint64, fresh bool) {
	c := slabClass(words)
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := c; k < len(p.idle); k++ {
		if free := p.idle[k]; len(free) > 0 {
			s = free[len(free)-1].s
			free[len(free)-1] = idleSlab{}
			p.idle[k] = free[:len(free)-1]
			p.usage.InUse += slabBytes(s)
			return s, false
		}
	}
	size := int64(8) << c
	p.usage.InUse += size
	p.usage.HighWater = max(p.usage.HighWater, p.usage.InUse)
	for p.usage.Mapped+size > p.usage.HighWater && p.unmapOldest() {
	}
	p.usage.Mapped += size
	p.usage.Maps++
	return mapSlab(1 << c), true
}

// unmapOldest gives the longest-idle slab back to the host, and reports
// whether there was one. Every idle slab is smaller than the borrow that
// calls it: one that fits would have been taken.
func (p *arenaPool) unmapOldest() bool {
	oldest := -1
	for c, free := range p.idle {
		if len(free) > 0 && (oldest < 0 || free[0].since < p.idle[oldest][0].since) {
			oldest = c
		}
	}
	if oldest < 0 {
		return false
	}
	s := p.idle[oldest][0].s
	p.idle[oldest] = slices.Delete(p.idle[oldest], 0, 1)
	p.usage.Mapped -= slabBytes(s)
	p.usage.Unmaps++
	unmapSlab(s)
	return true
}

// put returns released slabs to the pool as its newest idle ones.
func (p *arenaPool) put(slabs [][]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range slabs {
		p.usage.InUse -= slabBytes(s)
		p.tick++
		c := slabClass(len(s))
		p.idle[c] = append(p.idle[c], idleSlab{s, p.tick})
	}
}

// drop unmaps the slabs of a machine nobody released.
func (p *arenaPool) drop(slabs [][]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range slabs {
		p.usage.InUse -= slabBytes(s)
		p.usage.Mapped -= slabBytes(s)
		p.usage.Unmaps++
		unmapSlab(s)
	}
}

// slabList is the slabs one machine has borrowed. It is an object of its
// own so a finalizer can watch it: a Machine is in a cycle with its
// Procs, and the runtime need not finalize a cycle. mu guards slabs:
// Grow reallocations happen inside Run bodies, so concurrent processors
// can borrow at the same time.
type slabList struct {
	mu    sync.Mutex
	slabs [][]uint64
}

// newSlabList returns an empty list whose slabs are unmapped if its
// machine becomes unreachable unreleased.
func newSlabList() *slabList {
	l := new(slabList)
	runtime.SetFinalizer(l, func(l *slabList) { slabPool.drop(l.slabs) })
	return l
}

func (l *slabList) add(s []uint64) {
	l.mu.Lock()
	l.slabs = append(l.slabs, s)
	l.mu.Unlock()
}

// arenaBacked reports whether []T may be backed by slab memory: T must
// be a pointer-free numeric type no more strictly aligned than uint64.
func arenaBacked[T any]() bool {
	var zero T
	switch reflect.TypeOf(zero).Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// arenaMake returns a zeroed n-element slice backed by a slab borrowed
// from the pool (recorded for release with the machine), with capacity
// extending over the whole slab so Grow can extend in place. Non-numeric
// element types fall back to a plain allocation.
func arenaMake[T any](m *Machine, n, elemSize int) []T {
	if n == 0 {
		return nil
	}
	if m == nil || !arenaBacked[T]() {
		return make([]T, n)
	}
	words := (n*elemSize + 7) / 8
	s, fresh := slabPool.get(words)
	if !fresh {
		clear(s[:words])
	}
	m.arena.add(s)
	full := unsafe.Slice((*T)(unsafe.Pointer(&s[0])), len(s)*8/elemSize)
	return full[:n]
}

// Release returns every slab this machine's arrays borrowed to the
// process-wide pool. Call it when the machine and everything aliasing
// its arrays' Data slices are done: released slabs are handed to later
// machines, which zero and overwrite them. Safe to call more than once;
// the machine remains usable, but arrays created before Release must no
// longer be used.
func (m *Machine) Release() {
	l := m.arena
	l.mu.Lock()
	slabs := l.slabs
	l.slabs = nil
	l.mu.Unlock()
	slabPool.put(slabs)
}
