package machine

import (
	"fmt"
	"reflect"

	"repro/internal/memsys"
)

// Array couples a Go slice holding real data with a region of the
// simulated address space, so algorithms can operate on data normally
// while charging simulated memory costs for the corresponding addresses.
type Array[T any] struct {
	// Data is the backing slice; index i corresponds to address Addr(i).
	Data []T

	m      *Machine
	region *memsys.Region
	// base caches region.Base() so the per-element address computation
	// in Addr stays free of pointer chasing and inlines into the sorts'
	// inner loops.
	base     Addr
	elemSize int
}

// newArray wraps a region in an n-element Array whose backing slice
// comes from the machine's slab arena (arena.go).
func newArray[T any](m *Machine, r *memsys.Region, n, elemSize int) *Array[T] {
	return &Array[T]{
		Data: arenaMake[T](m, n, elemSize),
		m:    m, region: r, base: r.Base(), elemSize: elemSize,
	}
}

// elemSizeOf returns the in-memory size of T.
func elemSizeOf[T any]() int {
	var zero T
	return int(reflect.TypeOf(zero).Size())
}

// NewArrayBlocked allocates an n-element array whose address range is
// partitioned across the machine's processors (partition i homed on
// processor i's node), matching how the sorting programs distribute
// their key arrays.
func NewArrayBlocked[T any](m *Machine, name string, n int) *Array[T] {
	es := elemSizeOf[T]()
	r := m.as.AllocBlocked(name, n*es, m.Procs())
	return newArray[T](m, r, n, es)
}

// NewArrayRoundRobin allocates an n-element array with pages spread
// round-robin across nodes (how a shared global structure with no
// natural owner is placed).
func NewArrayRoundRobin[T any](m *Machine, name string, n int) *Array[T] {
	es := elemSizeOf[T]()
	r := m.as.AllocRoundRobin(name, n*es)
	return newArray[T](m, r, n, es)
}

// NewArrayOnProc allocates an n-element array homed entirely on the node
// of processor proc (private data, symmetric-heap segments, message
// buffers).
func NewArrayOnProc[T any](m *Machine, name string, n, proc int) *Array[T] {
	es := elemSizeOf[T]()
	r := m.as.AllocOnNode(name, n*es, m.top.NodeOf(proc))
	return newArray[T](m, r, n, es)
}

// NewArrayReserve allocates an address range for capElems elements homed
// on proc's node, but with an initially empty Data slice; Grow extends
// the usable prefix on demand. This supports buffers whose eventual fill
// is data-dependent (e.g. sample sort's receive arrays) without
// committing host memory for the worst case up front. Addresses are
// assigned at allocation time, so simulations stay deterministic.
func NewArrayReserve[T any](m *Machine, name string, capElems, proc int) *Array[T] {
	es := elemSizeOf[T]()
	r := m.as.AllocOnNode(name, capElems*es, m.top.NodeOf(proc))
	return &Array[T]{Data: nil, m: m, region: r, base: r.Base(), elemSize: es}
}

// Grow extends Data to hold at least n elements (bounded by the reserved
// capacity) and returns the array. Growing is a host-side operation with
// no simulated cost. Capacity at least doubles on each reallocation
// (bounded by the reservation), so growing an array one chunk at a time
// costs O(n) copying overall, not O(n²); reslices within capacity copy
// nothing. New elements read as zero either way.
func (a *Array[T]) Grow(n int) *Array[T] {
	if n <= len(a.Data) {
		return a
	}
	if n*a.elemSize > a.region.Size() {
		panic(fmt.Sprintf("machine: Grow(%d) exceeds region %q capacity %d elems",
			n, a.region.Name(), a.region.Size()/a.elemSize))
	}
	if n <= cap(a.Data) {
		// Slab tails may hold stale bytes from a previous borrower; a
		// fresh make-backed tail is already zero, but clearing is cheap
		// and keeps the contract uniform.
		ext := a.Data[len(a.Data):n]
		clear(ext)
		a.Data = a.Data[:n]
		return a
	}
	newCap := 2 * cap(a.Data)
	if newCap < n {
		newCap = n
	}
	if max := a.region.Size() / a.elemSize; newCap > max {
		newCap = max
	}
	grown := arenaMake[T](a.m, newCap, a.elemSize)
	copy(grown, a.Data)
	a.Data = grown[:n]
	return a
}

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.Data) }

// Addr returns the simulated address of element i.
func (a *Array[T]) Addr(i int) Addr {
	return a.base + Addr(i*a.elemSize)
}

// Region returns the backing region.
func (a *Array[T]) Region() *memsys.Region { return a.region }

// Bytes returns the byte length of n elements.
func (a *Array[T]) Bytes(n int) int { return n * a.elemSize }

// Load reads element i with the given sharing class, charging the
// simulated access and returning the value.
func (a *Array[T]) Load(p *Proc, i int, sh Sharing) T {
	p.Load(a.Addr(i), sh)
	return a.Data[i]
}

// LoadRange charges a sequential block read of elements [lo, hi),
// touching each cache line once with stream overlap. The caller reads
// a.Data[lo:hi] directly for the values.
func (a *Array[T]) LoadRange(p *Proc, lo, hi int, sh Sharing) {
	p.walkBlock(a.Addr(lo), (hi-lo)*a.elemSize, false, sh)
}

// StoreRange charges a sequential block write of elements [lo, hi).
func (a *Array[T]) StoreRange(p *Proc, lo, hi int, sh Sharing) {
	p.walkBlock(a.Addr(lo), (hi-lo)*a.elemSize, true, sh)
}
