package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/topology"
)

// Config gathers the simulated machine's parameters that experiments
// vary. Costs with one value on the Origin2000 are constants: OpNs,
// TLBMissNs, MissOverlap and the barrier's here, the protocol's in
// package coherence, the interconnect's latencies and link bandwidth in
// package topology, and the libraries' software costs in packages mpi
// and shmem, each at full size and divided by Scale (SoftwareNs).
type Config struct {
	// Topology is the machine's shape: network kind, processors, and
	// processors per node.
	Topology topology.Config
	// Cache is the per-processor (second-level) cache geometry.
	Cache cache.Config
	// TLB is the per-processor TLB geometry. Page size here is the page
	// size used for data placement as well.
	TLB cache.TLBConfig

	// Scale is the factor by which the machine shrinks the paper's
	// Origin2000: 1 for Origin2000, ScaleFactor for Origin2000Scaled.
	// Every fixed software cost is divided by it (SoftwareNs).
	Scale int

	// FlatMemory, when true, prices every miss at the local latency and
	// disables coherence/NUMA effects. Used by the flat-memory ablation.
	FlatMemory bool
	// NoContention, when true, makes every contention factor exactly 1.
	// Used by the no-contention ablation.
	NoContention bool
	// ParanoidSampleEvery turns on paranoid mode: the slow reference
	// models and invariant checks of internal/check (see DESIGN.md §9).
	// 0 is off. 1 shadows every simulated access. N > 1 runs only the
	// stateless oracles (page home, price table, directory legality,
	// clock invariants) on every Nth priced event, skipping the
	// per-access reference cache/TLB diff; transaction-class counting
	// and the accounting identities still cover every event, so a
	// corrupted price table or broken accounting is caught even at large
	// N — at a fraction of full mode's host cost. The run's simulated
	// results are unchanged either way — paranoid outputs are
	// byte-identical to normal ones — but the host slows down; violations
	// accumulate on Machine.Checker().
	ParanoidSampleEvery int
}

// The Origin2000's fixed per-processor costs. The machine charges the
// first two in picoseconds (opPs, tlbMissPs), exactly; the nanosecond
// forms are for callers of the float API and for the analytic model.
const (
	opPs      = 5130
	tlbMissPs = 300_000
	// OpNs is the busy cost of one abstract ALU operation in
	// nanoseconds: 195 MHz R10000 ~ 5.13 ns per cycle.
	OpNs float64 = opPs / 1e3
	// TLBMissNs is the stall for one TLB refill.
	TLBMissNs float64 = tlbMissPs / 1e3
	// MissOverlap is the number of outstanding misses a sequential stream
	// can overlap (the R10000 sustains 4); scattered dependent accesses
	// serialize at full latency. Applied by the stream/block access
	// variants.
	MissOverlap float64 = 4
)

// The full-size barrier cost: a base plus a term per tree level.
const (
	barrierBaseNs   float64 = 1000
	barrierPerLogNs float64 = 500
)

// The deterministic contention factor charged during communication
// phases is 1 + perProc·(communicatingProcs − 1), scaled for scattered
// traffic by how saturating the phase is (see ScatteredContention).
// Scattered (fine-grained, per-line) traffic contends much harder than
// bulk transfers because each line moves a full protocol transaction
// (request, invalidations, acknowledgements, later writeback) through
// the home memory controller, which is the paper's explanation for the
// poor performance of the original CC-SAS radix sort.
const (
	contentionScatteredPerProc float64 = 0.045
	contentionBulkPerProc      float64 = 0.005
	// contentionLoadFloor is the minimum load fraction used by
	// ScatteredContention: even short scattered bursts collide at the
	// home controllers, so the penalty never ramps entirely to zero.
	contentionLoadFloor = 0.1
)

// Validate checks the configuration; it changes nothing.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	if c.Scale < 1 {
		return fmt.Errorf("machine: Scale must be at least 1, got %d", c.Scale)
	}
	if c.ParanoidSampleEvery < 0 {
		return fmt.Errorf("machine: ParanoidSampleEvery must be non-negative, got %d", c.ParanoidSampleEvery)
	}
	return nil
}

// SoftwareNs returns a fixed software cost given at the paper's full
// size, divided by the machine's Scale: a machine whose data, cache and
// TLB reach shrink by Scale pays its fixed costs shrunk by the same
// factor, so the ratio of fixed to data-proportional work is the
// full-size machine's (DESIGN.md §1). It is the only code that divides
// a cost by the scale; the barrier, mpi and shmem price through it.
func (c *Config) SoftwareNs(fullSizeNs float64) float64 {
	return fullSizeNs / float64(c.Scale)
}

// BarrierCost returns the virtual time a full barrier over procs ≥ 1
// processors costs: base + perLog·⌈log₂ procs⌉, each term scaled by
// SoftwareNs. The machine's barriers and the analytic model
// (internal/perfmodel) both price through it, so the formula has one
// body.
func (c *Config) BarrierCost(procs int) float64 {
	return c.SoftwareNs(barrierBaseNs) + float64(c.SoftwareNs(barrierPerLogNs)*float64(bits.Len(uint(procs-1))))
}

// contentionFactor returns the multiplier for bulk remote traffic when
// q processors communicate concurrently.
func (c *Config) contentionFactor(q int) float64 {
	if q <= 1 || c.NoContention {
		return 1
	}
	return 1 + float64(contentionBulkPerProc*float64(q-1))
}

// ScatteredContention returns the multiplier for a scattered all-to-all
// phase in which q processors each move bytesPerProc of fine-grained
// traffic. Directory controllers saturate only under sustained load: a
// burst smaller than the cache drains without queueing, so the per-
// processor penalty ramps linearly with the phase's volume up to one
// cache-full of traffic per processor. The analytic model
// (internal/perfmodel) prices its scattered phases through this method,
// so the curve has one body.
func (c *Config) ScatteredContention(q, bytesPerProc int) float64 {
	if q <= 1 || c.NoContention {
		return 1
	}
	load := float64(bytesPerProc) / float64(c.Cache.Size)
	if load < contentionLoadFloor {
		load = contentionLoadFloor
	}
	if load > 1 {
		load = 1
	}
	return 1 + float64(contentionScatteredPerProc*float64(q-1)*load)
}

// Origin2000 returns the full-size machine parameters of the paper's
// platform: 2 processors per node on a hypercube, 4 MB 2-way
// 128-byte-line L2 per processor, 64-entry TLB with 16 KB pages,
// 195 MHz R10000.
func Origin2000(procs int) Config {
	procsPerNode := 2
	if procs == 1 {
		// A uniprocessor run (the sequential baseline) gets a single
		// one-processor node.
		procsPerNode = 1
	}
	return Config{
		Topology: topology.Config{Processors: procs, ProcsPerNode: procsPerNode},
		Cache:    cache.Config{Size: 4 << 20, LineSize: 128, Ways: 2},
		TLB:      cache.TLBConfig{Entries: 64, PageSize: 16 << 10},
		Scale:    1,
	}
}

// ScaleFactor is the factor by which Origin2000Scaled shrinks cache
// reach, TLB reach, data sizes, and fixed software costs relative to the
// paper's machine. 16 keeps the cache-line segment locality of the
// permutation phase close to the full-size machine's (the line size
// cannot scale), while making the largest experiments ~16x faster to
// simulate.
const ScaleFactor = 16

// Origin2000Scaled returns the experiment default: the same machine with
// cache and TLB reach and fixed software costs scaled down by
// ScaleFactor (256 KB cache, 1 KB pages, Scale 16), so that data sets
// scaled down by the same factor reproduce the paper's capacity
// crossovers while keeping simulations fast. See DESIGN.md §1.
func Origin2000Scaled(procs int) Config {
	c := Origin2000(procs)
	c.Cache.Size /= ScaleFactor
	c.TLB.PageSize /= ScaleFactor
	c.Scale = ScaleFactor
	return c
}
