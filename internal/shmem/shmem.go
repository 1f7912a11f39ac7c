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
package shmem

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Config sets the library's cost constants.
type Config struct {
	// GetOverheadNs is the fixed CPU cost of initiating one get.
	GetOverheadNs float64
	// PutOverheadNs is the fixed CPU cost of initiating one put.
	PutOverheadNs float64
	// CollectiveEntryNs is the fixed per-processor cost of entering a
	// collective operation.
	CollectiveEntryNs float64
}

// DefaultConfig returns overheads in line with a lean one-sided library:
// a microsecond-scale initiation cost per transfer.
func DefaultConfig() Config {
	return Config{
		GetOverheadNs:     1200,
		PutOverheadNs:     1000,
		CollectiveEntryNs: 2000,
	}
}

// Scaled divides the per-event fixed costs by f, matching a machine
// whose data sizes are scaled down by f (see DESIGN.md §1).
func (c Config) Scaled(f float64) Config {
	c.GetOverheadNs /= f
	c.PutOverheadNs /= f
	c.CollectiveEntryNs /= f
	return c
}

// Comm is one SHMEM execution context over a machine.
type Comm struct {
	m   *machine.Machine
	cfg Config
}

// New builds a SHMEM context.
func New(m *machine.Machine, cfg Config) *Comm {
	return &Comm{m: m, cfg: cfg}
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

// NewSymReserve allocates a symmetric segment like NewSym but only
// reserves capElems of address space per rank without backing storage;
// each rank grows its own segment (Local(p).Grow) once the needed size
// is known. Useful for exchange buffers whose per-rank sizes are
// data-dependent: the symmetric addresses exist up front (so remote
// ranks can target them) while host memory is committed lazily.
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
	c := s.c
	start := p.Now()
	p.ComputeNs(c.cfg.GetOverheadNs)
	src := s.Seg[srcRank]
	copy(dst.Data[dstOff:dstOff+n], src.Data[srcOff:srcOff+n])
	srcNode := c.m.Topology().NodeOf(srcRank)
	p.BulkTransfer(srcNode, dst.Bytes(n), dst.Addr(dstOff), true)
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
	p.ComputeNs(c.cfg.PutOverheadNs)
	dst := s.Seg[dstRank]
	copy(dst.Data[dstOff:dstOff+n], src.Data[srcOff:srcOff+n])
	dstNode := c.m.Topology().NodeOf(dstRank)
	p.BulkTransfer(dstNode, dst.Bytes(n), dst.Addr(dstOff), false)
	p.TraceEvent(trace.EvPut, dstRank, dst.Bytes(n), p.Now()-start)
}

// Collect gathers count elements from offset 0 of every rank's src
// segment into the caller's dst segment, rank-major (the SHMEM analogue
// of MPI_Allgather, here receiver-initiated: each rank gets from all
// others after a barrier). dst must hold count*Ranks() elements.
func Collect[T any](p *machine.Proc, src, dst *Sym[T], count int) {
	c := src.c
	p.ComputeNs(c.cfg.CollectiveEntryNs)
	// The source data must be globally visible before anyone pulls.
	c.Barrier(p)
	me := p.ID
	ranks := c.Ranks()
	// Local part first (a cheap memory copy), then round-robin gets
	// starting after self so all ranks don't hammer rank 0 at once.
	d := dst.Seg[me]
	s := src.Seg[me]
	copy(d.Data[me*count:(me+1)*count], s.Data[:count])
	d.StoreRange(p, me*count, (me+1)*count, machine.Private)
	s.LoadRange(p, 0, count, machine.Private)
	for k := 1; k < ranks; k++ {
		r := (me + k) % ranks
		src.GetInto(p, d, r*count, r, 0, count)
	}
	// No trailing barrier: callers that need global completion barrier
	// themselves (matching shmem collectives' semantics on this machine).
}
