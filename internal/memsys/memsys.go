// Package memsys models the simulated machine's global physical address
// space: named regions carved out of a flat address range, divided into
// pages, with each page homed on a node according to a placement policy.
//
// The address space only deals in addresses and homes; data itself lives
// in ordinary Go slices owned by the machine layer. Placement matters
// because the NUMA cost of a miss depends on the home node of the page
// it falls on, and because the paper's experiments are sensitive to page
// size (the authors tune page size per data-set size).
//
// Home lookups run once per simulated cache miss, so they are hot on the
// host: HomeOf answers from a flat page→home table built at allocation
// time (one bounds check and one slice load). A region owns its whole
// page-aligned span, alignment padding included, and its placement
// closure homes every byte of it, so a page lacks a single home only
// where a boundary between blocked partitions on different nodes falls
// strictly inside it; HomeOf
// resolves those pages through the region walk, ReferenceHomeOf, which
// memoizes nothing.
//
// Allocation is a setup-time operation: regions must be allocated before
// the machine runs processors (concurrent lookups are read-only and
// safe; allocation concurrent with lookups is not).
package memsys

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cache"
)

// mixedPage marks a page-table entry whose page does not have a single
// home node; lookups fall back to the region walk.
const mixedPage int32 = -1

// Region is a contiguous allocation in the simulated address space.
type Region struct {
	name string
	base cache.Addr
	size int
	// homeOf returns the home node of the byte at offset, which may lie
	// in the alignment padding past size; spanHome returns the home
	// shared by every offset in [start, end], or mixedPage when the span
	// covers more than one. spanHome builds the flat page table.
	homeOf   func(offset int) int
	spanHome func(start, end int) int32
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Base returns the region's starting address.
func (r *Region) Base() cache.Addr { return r.base }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return r.size }

// Addr returns the address of byte offset within the region.
func (r *Region) Addr(offset int) cache.Addr {
	return r.base + cache.Addr(offset)
}

// AddressSpace allocates regions and answers home-node queries.
type AddressSpace struct {
	pageSize   int
	pageShift  uint
	nodes      int
	nodeOfProc func(proc int) int
	next       cache.Addr
	regions    []*Region // sorted by base
	rrNext     int       // next node for round-robin placement

	// pageHome is the flat page→home table, indexed by page number
	// (address >> pageShift); mixedPage entries fall back to the region
	// walk. Built incrementally by alloc; read-only during simulation.
	pageHome []int32
}

// New builds an address space. pageSize must be a power of two; nodes is
// the node count; nodeOfProc maps a processor to its node (used by
// blocked placement).
func New(pageSize, nodes int, nodeOfProc func(int) int) (*AddressSpace, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("memsys: page size %d must be a positive power of two", pageSize)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("memsys: node count must be positive, got %d", nodes)
	}
	if nodeOfProc == nil {
		return nil, fmt.Errorf("memsys: nodeOfProc must not be nil")
	}
	return &AddressSpace{
		pageSize:   pageSize,
		pageShift:  uint(bits.Len(uint(pageSize - 1))),
		nodes:      nodes,
		nodeOfProc: nodeOfProc,
		// Leave page 0 unused so the zero Addr never aliases a region.
		next: cache.Addr(pageSize),
	}, nil
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() int { return as.pageSize }

// align rounds n up to the next page boundary.
func (as *AddressSpace) align(n int) int {
	return (n + as.pageSize - 1) &^ (as.pageSize - 1)
}

func (as *AddressSpace) alloc(name string, size int, homeOf func(offset int) int, spanHome func(start, end int) int32) *Region {
	r := &Region{name: name, base: as.next, size: size, homeOf: homeOf, spanHome: spanHome}
	as.next += cache.Addr(as.align(size))
	as.regions = append(as.regions, r)
	as.indexRegion(r)
	return r
}

// indexRegion appends the region's pages to the flat page→home table.
// A page gets a concrete home when the closure homes all of its bytes,
// padding included, on one node; otherwise it is marked mixedPage and
// lookups take the region walk, so the table never changes a simulated
// result.
func (as *AddressSpace) indexRegion(r *Region) {
	firstPage := int(uint64(r.base) >> as.pageShift)
	// Pages before the region's first page that are not yet indexed are
	// holes (only page 0 in practice): outside every region, homed on 0.
	for len(as.pageHome) < firstPage {
		as.pageHome = append(as.pageHome, 0)
	}
	for start := 0; start < r.size; start += as.pageSize {
		as.pageHome = append(as.pageHome, r.spanHome(start, start+as.pageSize-1))
	}
}

// AllocBlocked allocates size bytes partitioned across nProcs processors:
// byte offsets in partition i (of size/nProcs bytes) are homed on
// processor i's node, and the last partition runs on through the padding.
func (as *AddressSpace) AllocBlocked(name string, size, nProcs int) *Region {
	if nProcs <= 0 {
		panic(fmt.Sprintf("memsys: AllocBlocked(%q) with nProcs=%d", name, nProcs))
	}
	part := size / nProcs
	if part == 0 {
		part = 1
	}
	nodeOfProc := as.nodeOfProc
	procOf := func(offset int) int {
		p := offset / part
		if p >= nProcs {
			p = nProcs - 1
		}
		return p
	}
	homeOf := func(offset int) int {
		return nodeOfProc(procOf(offset))
	}
	spanHome := func(start, end int) int32 {
		pStart, pEnd := procOf(start), procOf(end)
		h := nodeOfProc(pStart)
		for q := pStart + 1; q <= pEnd; q++ {
			if nodeOfProc(q) != h {
				return mixedPage
			}
		}
		return int32(h)
	}
	return as.alloc(name, size, homeOf, spanHome)
}

// AllocRoundRobin allocates size bytes with consecutive pages homed on
// consecutive nodes.
func (as *AddressSpace) AllocRoundRobin(name string, size int) *Region {
	nodes := as.nodes
	pageSize := as.pageSize
	start := as.rrNext
	as.rrNext = (as.rrNext + as.align(size)/pageSize) % nodes
	homeOf := func(offset int) int {
		return (start + offset/pageSize) % nodes
	}
	spanHome := func(s, e int) int32 {
		p1, p2 := s/pageSize, e/pageSize
		if p1 != p2 {
			return mixedPage
		}
		return int32((start + p1) % nodes)
	}
	return as.alloc(name, size, homeOf, spanHome)
}

// AllocOnNode allocates size bytes entirely homed on node.
func (as *AddressSpace) AllocOnNode(name string, size, node int) *Region {
	if node < 0 || node >= as.nodes {
		panic(fmt.Sprintf("memsys: AllocOnNode(%q) node %d out of range [0,%d)", name, node, as.nodes))
	}
	homeOf := func(int) int { return node }
	spanHome := func(int, int) int32 { return int32(node) }
	return as.alloc(name, size, homeOf, spanHome)
}

// regionOf returns the region whose page-aligned span holds a, or nil.
func (as *AddressSpace) regionOf(a cache.Addr) *Region {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].base > a
	})
	if i == 0 {
		return nil
	}
	r := as.regions[i-1]
	if a >= r.base+cache.Addr(as.align(r.size)) {
		return nil
	}
	return r
}

// HomeOf returns the home node of the page containing a. Addresses
// outside every region's span are homed on node 0.
func (as *AddressSpace) HomeOf(a cache.Addr) int {
	pg := uint64(a) >> as.pageShift
	if pg >= uint64(len(as.pageHome)) {
		return 0
	}
	if h := as.pageHome[pg]; h >= 0 {
		return int(h)
	}
	return as.ReferenceHomeOf(a)
}

// ReferenceHomeOf is the region walk: a binary search over the region
// list and the owning region's placement closure, bypassing the flat
// page→home table. HomeOf takes it for pages marked mixedPage, and the
// paranoid differential checker compares the two on every miss.
func (as *AddressSpace) ReferenceHomeOf(a cache.Addr) int {
	if r := as.regionOf(a); r != nil {
		return r.homeOf(int(a - r.base))
	}
	return 0
}

// PageHome returns the home node of the page containing a when every
// byte of that page resolves to one home, with ok reporting whether it
// does. Block walks use it to hoist the home lookup out of their
// per-line loops; when ok is false the caller must resolve each address
// through HomeOf.
func (as *AddressSpace) PageHome(a cache.Addr) (home int, ok bool) {
	pg := uint64(a) >> as.pageShift
	if pg >= uint64(len(as.pageHome)) {
		return 0, true
	}
	if h := as.pageHome[pg]; h >= 0 {
		return int(h), true
	}
	return 0, false
}
