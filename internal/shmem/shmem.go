// Package shmem implements the SHMEM programming model on the simulated
// machine: a symmetric, segmented address space with one-sided put/get
// communication and collectives.
//
// As on the SGI Origin2000, only one side of a transfer is involved: a
// get pulls a remote block into the caller's memory (and cache), a put
// pushes a local block to a remote segment (without depositing it in the
// destination cache). Naming is symmetric: a processor addresses remote
// data by (rank, offset) within a segment that exists identically on all
// processors.
//
// Data a collective replicates is charged on every rank and held once
// on the host: a collection segment is an address range without backing
// storage, and Collect hands each rank views of the source segments.
package shmem

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// The library's full-size fixed costs, in line with a lean one-sided
// library: a microsecond-scale initiation per transfer. A context pays
// each divided by its machine's scale (machine.Config.SoftwareNs), as
// the analytic model (internal/perfmodel) prices the two it reads.
const (
	// GetOverheadNs is the fixed CPU cost of initiating one get.
	GetOverheadNs float64 = 1200
	// putOverheadNs is the fixed CPU cost of initiating one put.
	putOverheadNs float64 = 1000
	// CollectiveEntryNs is the fixed per-processor cost of entering a
	// collective operation.
	CollectiveEntryNs float64 = 2000
)

// Config has nothing to set: the library's costs are constants scaled
// by the machine. It remains for the frozen cmd/bench, its only caller
// (and sorts.Config.Shmem, which nothing reads).
type Config struct{}

// DefaultConfig returns the empty Config. It remains for the frozen
// cmd/bench, its only caller.
func DefaultConfig() Config { return Config{} }

// Scaled returns c unchanged: a context divides its fixed costs by its
// machine's scale. It remains for the frozen cmd/bench, its only caller.
func (c Config) Scaled(float64) Config { return c }

// Comm is one SHMEM execution context over a machine.
type Comm struct {
	m *machine.Machine
	// getNs, putNs and entryNs are the fixed costs on this machine,
	// divided by its scale once.
	getNs, putNs, entryNs float64
}

// New builds a SHMEM context. A Config argument is ignored; it remains
// for the frozen cmd/bench, its only caller.
func New(m *machine.Machine, _ ...Config) *Comm {
	mc := m.Config()
	return &Comm{m: m, getNs: mc.SoftwareNs(GetOverheadNs),
		putNs: mc.SoftwareNs(putOverheadNs), entryNs: mc.SoftwareNs(CollectiveEntryNs)}
}

// Machine returns the underlying machine.
func (c *Comm) Machine() *machine.Machine { return c.m }

// Ranks returns the number of processing elements.
func (c *Comm) Ranks() int { return c.m.Procs() }

// Barrier joins the machine-wide barrier (shmem_barrier_all).
func (c *Comm) Barrier(p *machine.Proc) { c.m.Barrier(p) }

// Sym is a symmetric array: every rank owns an identical-length segment,
// addressable remotely by (rank, element offset). Data for rank r lives
// in Seg[r].Data, homed on r's node.
type Sym[T any] struct {
	c *Comm
	// Seg[r] is rank r's segment.
	Seg []*machine.Array[T]
}

// NewSym allocates a symmetric array of n elements per rank.
func NewSym[T any](c *Comm, name string, n int) *Sym[T] {
	return newSym(c, name, n, machine.NewArrayOnProc[T])
}

// NewSymReserve allocates a symmetric segment like NewSym, at the same
// simulated addresses, but only reserves capElems of address space per
// rank without backing storage. Two kinds of segment use it. An exchange
// buffer whose per-rank size is data-dependent: each rank grows its own
// segment (Local(p).Grow) once the needed size is known, so remote ranks
// can target the symmetric addresses up front while host memory is
// committed lazily. And a Collect destination, which is only ever
// charged, never read through its Data.
func NewSymReserve[T any](c *Comm, name string, capElems int) *Sym[T] {
	return newSym(c, name, capElems, machine.NewArrayReserve[T])
}

func newSym[T any](c *Comm, name string, n int,
	alloc func(*machine.Machine, string, int, int) *machine.Array[T]) *Sym[T] {
	s := &Sym[T]{c: c, Seg: make([]*machine.Array[T], c.Ranks())}
	for r := range s.Seg {
		s.Seg[r] = alloc(c.m, fmt.Sprintf("%s[%d]", name, r), n, r)
	}
	return s
}

// Local returns the calling rank's segment.
func (s *Sym[T]) Local(p *machine.Proc) *machine.Array[T] { return s.Seg[p.ID] }

// Get pulls n elements from srcRank's segment at srcOff into the
// caller's segment at dstOff (shmem_get).
func (s *Sym[T]) Get(p *machine.Proc, dstOff, srcRank, srcOff, n int) {
	s.GetInto(p, s.Seg[p.ID], dstOff, srcRank, srcOff, n)
}

// GetInto pulls n elements from srcRank's segment at srcOff into an
// arbitrary local destination array (the common pattern of fetching into
// a private working buffer). The transferred lines land in the caller's
// cache. The caller must ensure (by barrier or fence) that the source
// data is ready; gets carry no pairwise synchronization.
func (s *Sym[T]) GetInto(p *machine.Proc, dst *machine.Array[T], dstOff, srcRank, srcOff, n int) {
	if n <= 0 {
		return
	}
	copy(dst.Data[dstOff:dstOff+n], s.Seg[srcRank].Data[srcOff:srcOff+n])
	s.chargeGet(p, dst, dstOff, srcRank, n)
}

// chargeGet charges a get of n elements from srcRank landing at dst's
// dstOff — the initiation, the line fills into the caller's cache and
// the trace event — and moves no data.
func (s *Sym[T]) chargeGet(p *machine.Proc, dst *machine.Array[T], dstOff, srcRank, n int) {
	start := p.Now()
	p.ComputeNs(s.c.getNs)
	p.BulkTransfer(s.c.m.Topology().NodeOf(srcRank), dst.Bytes(n), dst.Addr(dstOff), true)
	p.TraceEvent(trace.EvGet, srcRank, dst.Bytes(n), p.Now()-start)
}

// Put pushes n elements from the caller's segment at srcOff into
// dstRank's segment at dstOff (shmem_put).
func (s *Sym[T]) Put(p *machine.Proc, dstRank, dstOff, srcOff, n int) {
	s.PutFrom(p, s.Seg[p.ID], srcOff, dstRank, dstOff, n)
}

// PutFrom pushes n elements from an arbitrary local source array into
// dstRank's segment at dstOff (the put-side analogue of GetInto: the
// common pattern of pushing from a private working buffer). The data
// does NOT land in the destination's cache; the destination's stale
// copies are invalidated. The caller must ensure (by barrier) that the
// destination segment is ready to receive.
func (s *Sym[T]) PutFrom(p *machine.Proc, src *machine.Array[T], srcOff, dstRank, dstOff, n int) {
	if n <= 0 {
		return
	}
	c := s.c
	start := p.Now()
	p.ComputeNs(c.putNs)
	dst := s.Seg[dstRank]
	copy(dst.Data[dstOff:dstOff+n], src.Data[srcOff:srcOff+n])
	dstNode := c.m.Topology().NodeOf(dstRank)
	p.BulkTransfer(dstNode, dst.Bytes(n), dst.Addr(dstOff), false)
	p.TraceEvent(trace.EvPut, dstRank, dst.Bytes(n), p.Now()-start)
}

// Collect gathers count elements from offset 0 of every rank's src
// segment into the caller's dst segment, rank-major (the SHMEM analogue
// of MPI_Allgather, here receiver-initiated: each rank gets from all
// others after a barrier). dst must span count*Ranks() elements of
// address space; it is usually a NewSymReserve, because Collect charges
// the local store and every get into it but copies no data. Row r of
// the result is a view of rank r's source, src.Seg[r].Data[:count]: the
// collection is charged P times and held once, so P ranks collecting
// count elements each cost P·count host words, not P²·count.
//
// A row stays valid until its rank publishes into src again. Every
// program does that only after a later barrier, so what a rank reads
// between Collect and its next barrier is stable.
func Collect[T any](p *machine.Proc, src, dst *Sym[T], count int) [][]T {
	c := src.c
	p.ComputeNs(c.entryNs)
	// The source data must be globally visible before anyone pulls.
	c.Barrier(p)
	me := p.ID
	ranks := c.Ranks()
	d := dst.Seg[me]
	if size := d.Region().Size(); d.Bytes(count*ranks) > size {
		panic(fmt.Sprintf("shmem: Collect(%d) exceeds segment %q capacity %d elems",
			count, d.Region().Name(), size/d.Bytes(1)))
	}
	rows := make([][]T, ranks)
	for r, s := range src.Seg {
		if count > s.Len() {
			panic(fmt.Sprintf("shmem: Collect(%d) exceeds segment %q length %d",
				count, s.Region().Name(), s.Len()))
		}
		rows[r] = s.Data[:count]
	}
	// Local part first (a cheap memory copy, charged as one), then
	// round-robin gets starting after self so all ranks don't hammer
	// rank 0 at once.
	d.StoreRange(p, me*count, (me+1)*count, machine.Private)
	src.Seg[me].LoadRange(p, 0, count, machine.Private)
	for k := 1; count > 0 && k < ranks; k++ {
		r := (me + k) % ranks
		src.chargeGet(p, d, r*count, r, count)
	}
	// No trailing barrier: callers that need global completion barrier
	// themselves (matching shmem collectives' semantics on this machine).
	return rows
}
