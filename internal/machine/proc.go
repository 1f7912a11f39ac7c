package machine

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Addr re-exports the simulated address type for convenience.
type Addr = cache.Addr

// Sharing declares the coherence situation of the line an access
// touches. The programming-model layer knows the sharing pattern of each
// phase (who wrote the data last, who caches it), so it declares the
// class and the machine prices the resulting protocol transaction. See
// DESIGN.md §4 for why this replaces a live shared directory.
type Sharing int

const (
	// Private: no other cache holds the line; a miss fills from the home
	// memory (local or remote two-hop).
	Private Sharing = iota
	// RemoteProduced: the line was last written by the processor that
	// owns/homes it and is dirty in that cache; a miss is a three-hop
	// intervention.
	RemoteProduced
	// SharedRead: the line is read-shared; a read miss fills two-hop from
	// home, and a write miss must invalidate the other sharer.
	SharedRead
	// ConflictWrite: a write to a line cached (dirty or clean) by the
	// partition's owner: ownership transfer plus invalidation.
	ConflictWrite
	// DirtyElsewhere: the line is dirty in some remote cache whose
	// location is data-dependent (e.g. reading one's own partition after
	// an all-to-all scatter). Priced as a three-hop transaction whose
	// remote legs use the machine's average remote latency.
	DirtyElsewhere
)

// Proc is one simulated processor. All methods must be called only from
// the goroutine running this processor's body — or, while every
// processor is parked in Machine.Rendezvous, from the last arrival's.
type Proc struct {
	// ID is the processor number, in [0, Machine.Procs()).
	ID int
	// Node is the NUMA node housing this processor.
	Node int

	m     *Machine
	cache *cache.Cache
	tlb   *cache.TLB

	// classRow is this processor's row of the network's pair→
	// distance-class table: classRow[home] is the class of (Node, home),
	// the index into the pricing table's rows. Immutable (see pricing.go).
	classRow []int32

	clock int64  // virtual time, ps
	led   ledger // the clock's charges by category
	stats ProcStats

	// contention multiplies remote charges during a communication phase.
	contention float64

	// phase is the current phase label; phaseAcc points at its ledger so
	// per-charge bookkeeping stays a pointer write.
	phase    string
	phaseAcc *ledger
	phases   map[string]*ledger

	// tr is this processor's event-trace track, nil when tracing is
	// disabled. Every emission site is guarded by a nil check, so the
	// disabled hot path costs one predictable branch and zero
	// allocations (enforced by TestTracingDisabledZeroAlloc).
	tr *trace.ProcTrace

	// pc is this processor's paranoid-mode shadow (reference models and
	// invariant state), nil unless Config.ParanoidSampleEvery > 0. Like
	// tr, every hook site is a nil check, so a non-paranoid run costs one
	// predictable branch per site and zero allocations (enforced by
	// TestParanoidDisabledZeroAlloc).
	pc *paranoid

	// Stream-kernel scratch (stream.go): private cache/TLB lanes for the
	// kernels' source and table streams, plus lane sets for the radix
	// kernels' histogram (one per line, up to tblLaneCap) and scatter
	// target (one per bucket or line). Persistent on the Proc so
	// steady-state kernel calls are allocation-free
	// (TestStreamKernelsZeroAlloc).
	sTLB     [2]cache.TLBLane
	sLane    cache.Lane
	buckets  []bucketLanes
	tblLanes *[tblLaneCap]cache.Lane
}

func newProc(m *Machine, id int) *Proc {
	node := m.top.NodeOf(id)
	p := &Proc{
		ID:         id,
		Node:       node,
		m:          m,
		cache:      cache.New(m.cfg.Cache),
		tlb:        cache.NewTLB(m.cfg.TLB),
		classRow:   m.top.ClassRow(node),
		contention: 1,
	}
	if m.checker != nil {
		p.pc = newParanoid(m, m.checker)
	}
	return p
}

func (p *Proc) resetClock() {
	p.clock = 0
	p.led = ledger{}
	p.stats = ProcStats{}
	p.contention = 1
	p.phase = ""
	p.phaseAcc = nil
	p.phases = nil
	p.tr = nil
	if p.pc != nil {
		p.pc.resetRun()
	}
}

// SetPhase labels subsequent charges with a phase name; per-phase
// breakdowns are reported in ProcStats.Phases. An empty name stops
// phase attribution. When tracing is enabled, each SetPhase boundary
// closes the previous phase span and opens a new one on this
// processor's trace track.
func (p *Proc) SetPhase(name string) {
	if p.pc != nil {
		// Close the elapsed-time measurement of the outgoing phase before
		// the label changes (paranoid per-phase accounting identity).
		p.pc.notePhase(p)
	}
	if p.tr != nil {
		if name == "" {
			p.tr.CloseSpan(nsOf(p.clock))
		} else {
			p.tr.BeginSpan(name, nsOf(p.clock))
		}
	}
	p.phase = name
	if name == "" {
		p.phaseAcc = nil
		return
	}
	if p.phases == nil {
		p.phases = make(map[string]*ledger)
	}
	acc, ok := p.phases[name]
	if !ok {
		acc = &ledger{}
		p.phases[name] = acc
	}
	p.phaseAcc = acc
}

// Phase returns the current phase label.
func (p *Proc) Phase() string { return p.phase }

func (p *Proc) snapshot() ProcStats {
	s := p.stats
	s.Breakdown = p.led.breakdown()
	cs := p.cache.Stats()
	s.CacheAccesses = cs.Accesses
	s.CacheMisses = cs.Misses
	s.Writebacks = cs.Writebacks
	s.TLBMisses = p.tlb.Stats().Misses
	if p.phases != nil {
		s.Phases = make(map[string]Breakdown, len(p.phases))
		for name, acc := range p.phases {
			if *acc == (ledger{}) {
				// A phase entered but never charged (e.g. a barrier-only
				// phase whose wait resolved at zero cost, or a label set
				// and immediately replaced) would report an empty
				// breakdown; dropping it keeps the BUSY+LMEM+RMEM+SYNC
				// accounting identity trivially true for every reported
				// phase (TestZeroChargePhasePruned).
				continue
			}
			s.Phases[name] = acc.breakdown()
		}
	}
	return s
}

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the processor's virtual clock (ns).
func (p *Proc) Now() float64 { return nsOf(p.clock) }

// Stats returns a snapshot of the processor's accumulated statistics.
func (p *Proc) Stats() ProcStats { return p.snapshot() }

// TraceEvent records a typed communication event ending at the current
// virtual time: the event covers [Now-durNs, Now]. peer is the other
// rank involved (-1 when not applicable); bytes the payload size. A
// no-op (one branch, zero allocations) when tracing is disabled.
func (p *Proc) TraceEvent(kind trace.EventKind, peer, bytes int, durNs float64) {
	if p.tr != nil {
		p.tr.Emit(kind, nsOf(p.clock)-durNs, durNs, peer, int64(bytes))
	}
}

// countTx attributes one coherence-protocol transaction to a trace
// class when tracing is enabled.
func (p *Proc) countTx(c trace.TxClass) {
	if p.tr != nil {
		p.tr.CountTx(c)
	}
}

// charge advances the clock by ps picoseconds and books them to bucket
// b, whole-run and in the open phase. Every charge ends here.
func (p *Proc) charge(b bucket, ps int64) {
	p.clock += ps
	p.led[b] += ps
	if p.phaseAcc != nil {
		p.phaseAcc[b] += ps
	}
}

// Compute charges ops abstract ALU operations to BUSY.
func (p *Proc) Compute(ops int) { p.charge(bBusy, int64(ops)*opPs) }

// ComputeNs charges ns nanoseconds to BUSY.
func (p *Proc) ComputeNs(ns float64) { p.charge(bBusy, psOf(ns)) }

// WaitUntil advances the clock to t if t is in the future, charging the
// gap to SYNC. It is the primitive under message waits and flow control.
func (p *Proc) WaitUntil(t float64) { p.waitUntil(psOf(t)) }

func (p *Proc) waitUntil(ps int64) {
	if ps > p.clock {
		p.charge(bSync, ps-p.clock)
	}
}

// LocalMemNs charges ns nanoseconds of local-memory stall (library-level
// copies and buffer management in the programming-model layers).
func (p *Proc) LocalMemNs(ns float64) { p.charge(bLMem, psOf(ns)) }

// RemoteMemNs charges ns nanoseconds of remote-memory stall, scaled by
// the current contention factor.
func (p *Proc) RemoteMemNs(ns float64) { p.charge(bRMem, psOf(ns*p.contention)) }

// AddMessageTraffic records one explicit message carrying remoteBytes
// bytes across node boundaries (0 for an intra-node message).
func (p *Proc) AddMessageTraffic(remoteBytes, messages int) {
	p.stats.Traffic.RemoteBytes += int64(remoteBytes)
	p.stats.Traffic.Messages += int64(messages)
}

// SetContention sets the remote-charge multiplier for the current
// communication phase; 1 means uncontended. The programming-model layer
// derives the factor from the machine config and the phase's concurrency
// and traffic pattern.
func (p *Proc) SetContention(f float64) {
	if f < 1 {
		f = 1
	}
	p.contention = f
}

// ContentionFactor computes the machine's deterministic contention
// multiplier for a phase in which q processors move bulk transfers
// concurrently; scattered per-line traffic is priced by
// ScatteredContentionFactor.
func (p *Proc) ContentionFactor(q int) float64 {
	return p.m.cfg.contentionFactor(q)
}

// ScatteredContentionFactor computes the multiplier for a scattered
// all-to-all phase moving bytesPerProc per processor; light bursts stay
// near 1, sustained cache-scale scatter saturates the home controllers.
func (p *Proc) ScatteredContentionFactor(q, bytesPerProc int) float64 {
	return p.m.cfg.ScatteredContention(q, bytesPerProc)
}

// chargeRemote adds a remote-memory stall of ps picoseconds, scaled by
// the current contention factor.
func (p *Proc) chargeRemote(ps int64) {
	if p.contention != 1 {
		ps = psOf(nsOf(ps) * p.contention)
	}
	p.charge(bRMem, ps)
}

// access simulates one memory reference through the plain TLB and cache
// probes. It is the definition of what a reference charges: every stream
// kernel must leave the machine in the state the equivalent loop of
// access calls leaves it in (TestStreamEquivalence). ov selects the
// miss price: scattered dependent accesses pay the full latency,
// streamed ones, whose misses pipeline through the MSHRs, 1/MissOverlap
// of it.
func (p *Proc) access(a Addr, write bool, sh Sharing, ov overlap) {
	p.translated(a, p.tlb.Access(a))
	p.accessed(a, write, sh, ov, p.cache.Access(a, write))
}

// translated finishes a TLB access of a whose outcome was miss: full
// paranoid mode diffs the outcome against the reference TLB, and a miss
// charges the refill. Every translation of the simulator ends here,
// whether it came from the plain probe or from a lane's slow step.
func (p *Proc) translated(a Addr, miss bool) {
	if p.pc != nil {
		p.pc.checkTLBAccess(p, a, miss)
	}
	if miss {
		p.charge(bLMem, tlbMissPs)
	}
}

// accessed finishes a cache access of a whose outcome was res: full
// paranoid mode diffs the outcome against the reference cache, then the
// writeback and the miss are priced. Every translated reference ends
// here, whether it came from the plain probe or from a lane's slow step.
func (p *Proc) accessed(a Addr, write bool, sh Sharing, ov overlap, res cache.AccessResult) {
	if p.pc != nil {
		p.pc.checkCacheAccess(p, a, write, res)
	}
	if res.WriteBack {
		p.chargeWriteback(res.WritebackAddr)
	}
	if !res.Hit {
		p.missCharge(a, write, sh, ov)
	}
}

// missCharge prices a cache miss according to the declared sharing
// class. The charge comes from the machine's memoized pricing table; the
// table is built by the live coherence.Protocol at Machine.New
// (TestPriceTableMatchesProtocol).
func (p *Proc) missCharge(a Addr, write bool, sh Sharing, ov overlap) {
	cfg := &p.m.cfg
	if cfg.FlatMemory {
		// Ablation: uniform memory, no coherence (and no protocol
		// transactions to count — nor, consistently, any paranoid
		// miss/pricing oracle to run).
		p.charge(bLMem, int64(topology.LocalLatency*1e3))
		return
	}
	home := p.m.as.HomeOf(a)
	if p.pc != nil {
		p.pc.checkMiss(p, a, write, sh, home)
	}
	// Sharing constants mirror trace.TxClass order, so the conversion is
	// a cast (checked by TestSharingTxClassAlignment).
	p.countTx(trace.TxClass(sh))
	e := &p.m.prices.miss[priceClass(sh, write)][p.classRow[home]]
	p.stats.Traffic.ProtocolTransactions++
	if e.remote {
		p.stats.Traffic.RemoteBytes += e.trafficBytes
		p.chargeRemote(e.ps[ov])
		return
	}
	p.charge(bLMem, e.ps[ov])
}

// chargeWriteback prices the eviction of a dirty line. Writebacks are
// mostly off the processor's critical path in hardware, but they occupy
// the home memory controller and the network; we charge their occupancy
// and wire time (not their full round-trip latency).
func (p *Proc) chargeWriteback(a Addr) {
	cfg := &p.m.cfg
	if cfg.FlatMemory {
		p.charge(bLMem, int64(coherence.DirOccupancy*1e3))
		return
	}
	home := p.m.as.HomeOf(a)
	if p.pc != nil {
		p.pc.checkWriteback(p, a, home)
	}
	p.countTx(trace.TxWriteback)
	p.stats.Traffic.ProtocolTransactions++
	e := &p.m.prices.writeback[p.classRow[home]]
	if e.remote {
		p.stats.Traffic.RemoteBytes += e.trafficBytes
		p.chargeRemote(e.ps[scattered])
		return
	}
	p.charge(bLMem, e.ps[scattered])
}

// Load simulates a scattered (dependent, unoverlapped) read of the line
// containing a.
func (p *Proc) Load(a Addr, sh Sharing) { p.access(a, false, sh, scattered) }

// BulkTransfer simulates a pipelined block transfer of bytes between this
// processor's node and node other (direction does not change the cost):
// one transaction latency plus wire time for the payload, charged to RMEM
// (or LMEM when other is the local node). When intoCache is true the
// destination lines land in this processor's cache, displacing whatever
// was there (a SHMEM get fills the requester's cache; a put does not).
// dst gives the destination addresses used for the cache installation.
func (p *Proc) BulkTransfer(otherNode int, bytes int, dst Addr, intoCache bool) {
	if bytes <= 0 {
		return
	}
	p.stats.Traffic.Messages++
	lat := p.m.top.ReadLatency(p.Node, otherNode) + topology.TransferTime(bytes)
	if otherNode == p.Node {
		p.LocalMemNs(lat)
	} else {
		p.stats.Traffic.RemoteBytes += int64(bytes)
		p.RemoteMemNs(lat)
	}
	if intoCache {
		line := Addr(p.m.cfg.Cache.LineSize)
		end := dst + Addr(bytes)
		for la := p.cache.LineAddr(dst); la < end; la += line {
			res := p.cache.Access(la, true)
			if p.pc != nil {
				p.pc.checkCacheAccess(p, la, true, res)
			}
			if res.WriteBack {
				p.chargeWriteback(res.WritebackAddr)
			}
		}
	}
}

// CacheContains reports whether this processor's cache currently holds
// the line of a (for tests and model validation).
func (p *Proc) CacheContains(a Addr) bool { return p.cache.Contains(a) }

// InvalidateRange drops every line of [a, a+bytes) from this processor's
// cache: another agent (an incoming message, a remote put) overwrote the
// region, so locally cached copies are stale.
func (p *Proc) InvalidateRange(a Addr, bytes int) {
	if bytes <= 0 {
		return
	}
	line := Addr(p.m.cfg.Cache.LineSize)
	end := a + Addr(bytes)
	for la := p.cache.LineAddr(a); la < end; la += line {
		present, dirty := p.cache.Invalidate(la)
		if p.pc != nil {
			p.pc.checkInvalidate(p, la, present, dirty)
		}
	}
}
