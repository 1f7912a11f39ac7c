package machine

import (
	"container/list"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"unsafe"
)

// This file is the slab arena (DESIGN.md §13): Array backing slices are
// carved out of pooled []uint64 slabs instead of fresh allocations, and
// Machine.Release returns every piece a machine borrowed to one
// process-wide pool. A grid of experiment cells (paperfigs, cmd/bench's
// paper-grid, simd) builds one machine per cell with near-identical array
// footprints, so after the first cells the steady state maps no array
// memory at all (TestArenaReuse, TestArenaBound).
//
// The pool is a buddy allocator. Every borrow is a power-of-two piece of
// a slab the pool mapped. A borrow with no idle piece of its class
// splits the smallest larger idle piece, keeps one half and leaves the
// other idle, down to its class; a returned piece merges with its idle
// buddy, repeatedly, back up to its slab. A borrow therefore holds its
// class bytes and no more, and the memory the pool keeps follows the
// largest cell rather than every size class the process has seen
// (TestArenaNoRatchet).
//
// Small and big slabs, below and from 64 KiB, are two tiers that share
// no memory: a small borrow splits only small slabs, a big one only big
// slabs. Where the build allows (arena_mmap.go: linux without the race
// detector) big slabs are anonymous mappings outside the Go heap, so
// neither borrowed nor idle big-slab bytes raise the collector's heap
// goal; small slabs, and every slab of the other builds (arena_heap.go),
// are made on the heap. The builds differ only in
// mapSlab/unmapSlab/unmapPiece. Small borrows cut from big slabs would
// move the pool's small-slab memory off the heap, and a process that has
// run cells would keep a smaller live heap and collect more often for
// the same work (DESIGN.md §13).
//
// Each tier holds at most the most memory ever borrowed from it at once,
// its high-water mark. Only a borrow that no idle piece of its tier can
// serve maps a new slab of its class, after giving the tier's
// longest-idle pieces back to the host until the new slab fits under
// the tier's mark. One mark for both tiers would have a miss in one tier
// give back the other's idle memory, which the next cell maps again.
//
// Slabs hold only pointer-free element types (the sorts use uint32 keys
// and int32/int64 bookkeeping), so viewing a []uint64 slab as []T is
// safe for the garbage collector; any other element type silently falls
// back to a plain make.
//
// An Array's Data must not outlive its machine. Release hands the pieces
// to later machines, which zero and overwrite them; a machine dropped
// without Release has its pieces given back to the host once the
// collector finds it unreachable (slabList's finalizer), and a Data
// slice kept past that faults or reads zeros.

// ArenaUsage is a snapshot of the process-wide slab pool. Heap-made
// slabs count as mapped too: to map a slab is to take it from the host.
type ArenaUsage struct {
	// InUse is the bytes of the pieces machines hold and have not
	// released.
	InUse int64 `json:"in_use_bytes"`
	// Mapped is the slab bytes the pool owns, borrowed or idle.
	Mapped int64 `json:"mapped_bytes"`
	// HighWater is the sum of the two tiers' high-water marks, the most
	// bytes ever borrowed at once from each; Mapped never exceeds it.
	HighWater int64 `json:"high_water_bytes"`
	// Maps counts slabs taken from the host, Unmaps pieces given back
	// (a whole slab is one piece).
	Maps   uint64 `json:"maps"`
	Unmaps uint64 `json:"unmaps"`
	// Splits counts idle pieces halved for a smaller borrow, Merges
	// returned pieces joined with their idle buddy.
	Splits uint64 `json:"splits"`
	Merges uint64 `json:"merges"`
}

// ArenaStats returns the slab pool's current usage.
func ArenaStats() ArenaUsage {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	u := slabPool.counts
	for i := range slabPool.tiers {
		t := &slabPool.tiers[i]
		u.InUse += t.inUse
		u.Mapped += t.mapped
		u.HighWater += t.highWater
	}
	return u
}

// arenaPool is the process-wide buddy allocator. Machines borrow under
// its mutex at array-construction time — not on any simulated-access
// path — so contention is negligible.
type arenaPool struct {
	mu sync.Mutex
	// idle holds each class's idle pieces; a borrow takes the one put
	// there last. where finds an idle piece, so a returned piece can find
	// its idle buddy. Both hold *idlePiece.
	idle  [48]list.List
	tiers [2]tier // small, big
	where map[piece]*idlePiece
	// counts holds the map, unmap, split and merge counts; the tiers
	// hold the bytes.
	counts ArenaUsage
}

var slabPool = arenaPool{where: map[piece]*idlePiece{}}

// bigClass is the class of the smallest big slab, 64 KiB.
const bigClass = 13

// tier is the small or the big slabs' share of the pool.
type tier struct {
	// byAge holds the tier's idle pieces (*idlePiece), longest idle
	// first.
	byAge                    list.List
	inUse, mapped, highWater int64
}

// tierOf returns the tier of class's pieces and slabs.
func (p *arenaPool) tierOf(class int) *tier {
	if class < bigClass {
		return &p.tiers[0]
	}
	return &p.tiers[1]
}

// slab is one mapping the pool took from the host, 2^class words.
type slab struct {
	mem   []uint64
	class int
	// live is the words of mem not given back to the host; the slab is
	// unmapped with its last piece.
	live int
}

// piece is the 2^class words of a slab at word offset off, a multiple of
// 2^class. Its buddy is the piece of the same class at off ^ 2^class.
type piece struct {
	slab       *slab
	off, class int
}

// idlePiece is an idle piece and its elements in the pool's two lists.
type idlePiece struct {
	piece
	inClass, inAge *list.Element
}

// slabClass returns the smallest power-of-two class holding words ≥ 1
// words.
func slabClass(words int) int { return bits.Len(uint(words - 1)) }

// words returns the piece's memory, with capacity capped at the piece so
// that nothing appended to it reaches its buddy.
func (pc piece) words() []uint64 {
	end := pc.off + 1<<pc.class
	return pc.slab.mem[pc.off:end:end]
}

func (pc piece) bytes() int64 { return 8 << pc.class }

// free makes pc idle: the newest of its class, and in age just before
// the idle piece at (a split's halves are as old as their parent), or
// the newest of all when at is nil.
func (p *arenaPool) free(pc piece, at *list.Element) {
	ip := &idlePiece{piece: pc}
	ip.inClass = p.idle[pc.class].PushBack(ip)
	byAge := &p.tierOf(pc.class).byAge
	if at == nil {
		ip.inAge = byAge.PushBack(ip)
	} else {
		ip.inAge = byAge.InsertBefore(ip, at)
	}
	p.where[pc] = ip
}

// take removes an idle piece from the pool.
func (p *arenaPool) take(ip *idlePiece) {
	p.idle[ip.class].Remove(ip.inClass)
	p.tierOf(ip.class).byAge.Remove(ip.inAge)
	delete(p.where, ip.piece)
}

// get borrows a piece of at least words words: the idle piece of its
// class put there last, or a split of the smallest larger idle piece of
// its tier, or else a newly mapped slab, whose memory is already zero
// (fresh).
func (p *arenaPool) get(words int) (pc piece, fresh bool) {
	c := slabClass(words)
	size := int64(8) << c
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tierOf(c)
	t.inUse += size
	top := len(p.idle)
	if c < bigClass {
		top = bigClass
	}
	for k := c; k < top; k++ {
		e := p.idle[k].Back()
		if e == nil {
			continue
		}
		ip := e.Value.(*idlePiece)
		pc = ip.piece
		for pc.class > c { // keep the lower half, leave the upper idle
			pc.class--
			p.free(piece{pc.slab, pc.off + 1<<pc.class, pc.class}, ip.inAge)
			p.counts.Splits++
		}
		p.take(ip)
		return pc, false
	}
	t.highWater = max(t.highWater, t.inUse)
	for t.mapped+size > t.highWater && p.unmapOldest(t) {
	}
	t.mapped += size
	p.counts.Maps++
	return piece{&slab{mem: mapSlab(1 << c), class: c, live: 1 << c}, 0, c}, true
}

// unmapOldest gives the tier's longest-idle piece back to the host, and
// reports whether there was one.
func (p *arenaPool) unmapOldest(t *tier) bool {
	e := t.byAge.Front()
	if e == nil {
		return false
	}
	ip := e.Value.(*idlePiece)
	p.take(ip)
	p.unmap(ip.piece)
	return true
}

// unmap gives a piece the pool no longer holds back to the host: the
// whole slab with its last live piece, else the piece's own pages. Its
// buddy never merges past it again.
func (p *arenaPool) unmap(pc piece) {
	p.tierOf(pc.class).mapped -= pc.bytes()
	p.counts.Unmaps++
	s := pc.slab
	if s.live -= 1 << pc.class; s.live == 0 {
		unmapSlab(s.mem)
	} else {
		unmapPiece(s.mem, pc.words())
	}
}

// put returns released pieces to the pool, each merged with its idle
// buddy for as long as there is one, as the newest idle pieces.
func (p *arenaPool) put(pieces []piece) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range pieces {
		p.tierOf(pc.class).inUse -= pc.bytes()
		for pc.class < pc.slab.class {
			buddy := p.where[piece{pc.slab, pc.off ^ 1<<pc.class, pc.class}]
			if buddy == nil {
				break
			}
			p.take(buddy)
			p.counts.Merges++
			pc.off &^= 1 << pc.class
			pc.class++
		}
		p.free(pc, nil)
	}
}

// drop gives the pieces of a machine nobody released back to the host.
func (p *arenaPool) drop(pieces []piece) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range pieces {
		p.tierOf(pc.class).inUse -= pc.bytes()
		p.unmap(pc)
	}
}

// slabList is the pieces one machine has borrowed. It is an object of
// its own so a finalizer can watch it: a Machine is in a cycle with its
// Procs, and the runtime need not finalize a cycle. mu guards pieces:
// Grow reallocations happen inside Run bodies, so concurrent processors
// can borrow at the same time.
type slabList struct {
	mu     sync.Mutex
	pieces []piece
}

// newSlabList returns an empty list whose pieces go back to the host if
// its machine becomes unreachable unreleased.
func newSlabList() *slabList {
	l := new(slabList)
	runtime.SetFinalizer(l, func(l *slabList) { slabPool.drop(l.pieces) })
	return l
}

func (l *slabList) add(pc piece) {
	l.mu.Lock()
	l.pieces = append(l.pieces, pc)
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

// arenaMake returns a zeroed n-element slice backed by a piece borrowed
// from the pool (recorded for release with the machine), with capacity
// extending over the whole piece so Grow can extend in place. Non-numeric
// element types fall back to a plain allocation.
func arenaMake[T any](m *Machine, n, elemSize int) []T {
	if n == 0 {
		return nil
	}
	if m == nil || !arenaBacked[T]() {
		return make([]T, n)
	}
	words := (n*elemSize + 7) / 8
	pc, fresh := slabPool.get(words)
	s := pc.words()
	if !fresh {
		clear(s[:words])
	}
	m.arena.add(pc)
	full := unsafe.Slice((*T)(unsafe.Pointer(&s[0])), len(s)*8/elemSize)
	return full[:n]
}

// Release returns every piece this machine's arrays borrowed to the
// process-wide pool. Call it when the machine and everything aliasing
// its arrays' Data slices are done: released pieces are handed to later
// machines, which zero and overwrite them. Safe to call more than once;
// the machine remains usable, but arrays created before Release must no
// longer be used.
func (m *Machine) Release() {
	l := m.arena
	l.mu.Lock()
	pieces := l.pieces
	l.pieces = nil
	l.mu.Unlock()
	slabPool.put(pieces)
}
