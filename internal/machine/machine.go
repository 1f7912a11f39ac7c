// Package machine is the execution-driven simulator of a cache-coherent
// DSM multiprocessor in the style of the SGI Origin2000.
//
// Simulated processors are goroutines running real algorithm code over
// real data; every modeled memory access flows through a per-processor
// cache and TLB model and is priced by the directory coherence protocol
// engine and the machine topology. Each processor accumulates virtual
// time split into the paper's BUSY / LMEM / RMEM / SYNC buckets.
// Synchronization primitives reconcile virtual clocks deterministically,
// so a run's simulated times are a pure function of its inputs.
package machine

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Machine is one simulated multiprocessor.
type Machine struct {
	cfg   Config
	top   topology.Network
	as    *memsys.AddressSpace
	proto *coherence.Protocol
	// prices memoizes every charge the protocol can produce for this
	// topology (see pricing.go); proto remains the reference oracle.
	prices *priceTable
	procs  []*Proc

	// gate is the one parking place: Barrier, Rendezvous, Share and
	// Mailbox.
	gate *gate

	// tracing makes the next Run record a virtual-time event trace.
	tracing bool

	// checker collects paranoid-mode violations, nil when
	// Config.ParanoidSampleEvery is 0 (see internal/check and
	// paranoid.go).
	checker *check.Checker

	// arena is the slab memory this machine's arrays have borrowed from
	// the process-wide pool; Release returns it (see arena.go).
	arena *slabList
}

// New builds a machine from cfg after validating it.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	top, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	as, err := memsys.New(cfg.TLB.PageSize, top.Nodes(), top.NodeOf)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		top:   top,
		as:    as,
		proto: coherence.NewProtocol(top, cfg.Cache.LineSize),
		arena: newSlabList(),
	}
	// Precompute the coherence pricing table before processors are
	// built: each Proc caches its own row pointers.
	m.prices = newPriceTable(top, m.proto)
	if cfg.ParanoidSampleEvery > 0 {
		// The checker must exist before processors are built: each Proc
		// attaches its paranoid shadow at construction.
		m.checker = check.New()
	}
	n := cfg.Topology.Processors
	m.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		m.procs[i] = newProc(m, i)
	}
	m.gate = newGate(m.procs)
	return m, nil
}

// MustNew is New but panics on error; for static experiment presets.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Topology returns the machine's interconnect.
func (m *Machine) Topology() topology.Network { return m.top }

// AddressSpace returns the simulated address space.
func (m *Machine) AddressSpace() *memsys.AddressSpace { return m.as }

// Procs returns the number of processors.
func (m *Machine) Procs() int { return len(m.procs) }

// Proc returns processor i (useful in tests; application code receives
// its Proc from Run).
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// EnableTracing makes subsequent Runs record a deterministic
// virtual-time event trace, attached to Result.Trace. Tracing costs
// nothing when not enabled (every emission site is a nil check).
func (m *Machine) EnableTracing() { m.tracing = true }

// Checker returns the paranoid-mode violation collector, or nil when the
// machine was built with Config.ParanoidSampleEvery 0. Callers should
// consult Checker().Err() after a run; the simulator records violations rather
// than halting, so a run always completes with its normal outputs.
func (m *Machine) Checker() *check.Checker { return m.checker }

// Result reports one parallel run.
type Result struct {
	// TimeNs is the simulated wall time: the max over processors of
	// their final virtual clocks.
	TimeNs float64
	// PerProc is each processor's stats.
	PerProc []ProcStats
	// Trace is the run's virtual-time event trace, nil unless the
	// machine had tracing enabled.
	Trace *trace.Trace
}

// TotalBreakdown sums all processors' breakdowns.
func (r *Result) TotalBreakdown() Breakdown {
	var sum Breakdown
	for _, ps := range r.PerProc {
		sum.Add(ps.Breakdown)
	}
	return sum
}

// ProcPanic is the error Run returns when a processor's body panicked.
type ProcPanic struct {
	// Proc is the processor whose program failed.
	Proc int
	// Value is what it panicked with.
	Value any
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("machine: processor %d panicked: %v", e.Proc, e.Value)
}

// Unwrap returns Value when it is an error, so a typed failure raised
// inside a processor body survives Run (errors.As).
func (e *ProcPanic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Blame is a panic value that names the processor a failure belongs to
// when that is not the one whose goroutine panicked: the last arrival of
// a Rendezvous that drives another processor's step wraps the step's
// panic in it, and Run reports Proc.
type Blame struct {
	Proc  int
	Value any
}

// Run executes body once per processor, each on its own goroutine, and
// returns the collected result. Virtual clocks and stats are reset
// first, so a machine can host several runs; caches and TLBs are NOT
// reset between runs unless ResetMemory is called (warm caches across
// phases of one experiment are intentional).
//
// A panic in any processor body aborts the run: processors parked at the
// gate, and those that reach it later, unwind, and once every goroutine
// has returned Run returns a *ProcPanic for the lowest-numbered processor
// that failed. Processors parked where no running processor can release
// them abort the run the same way, and Run returns a *StrandedError
// naming them; so does a processor body that panics with one (the MPI
// replay's stuck phase). Run itself never panics on the caller's
// goroutine.
func (m *Machine) Run(body func(p *Proc)) (*Result, error) {
	var tr *trace.Trace
	if m.tracing {
		tr = trace.New(len(m.procs))
	}
	for _, p := range m.procs {
		p.resetClock()
		if tr != nil {
			p.tr = tr.Procs[p.ID]
		}
	}
	var wg sync.WaitGroup
	failed := make([]error, len(m.procs), len(m.procs)+1)
	for _, p := range m.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				r := recover()
				if _, unwound := r.(runAborted); r == nil || unwound {
					return
				}
				id := p.ID
				if b, ok := r.(Blame); ok {
					id, r = b.Proc, b.Value
				}
				var err error = &ProcPanic{Proc: id, Value: r}
				if se, ok := r.(*StrandedError); ok {
					err = se
				}
				m.gate.mu.Lock()
				failed[id] = err
				m.gate.abort(err)
				m.gate.mu.Unlock()
			}()
			body(p)
			m.gate.leave(p.ID)
		}(p)
	}
	wg.Wait()
	// The lowest-numbered processor that failed, so the error does not
	// depend on host scheduling; else the gate's abort cause.
	err := cmp.Or(append(failed, m.gate.cause)...)
	m.gate.reset()
	if err != nil {
		return nil, err
	}
	res := &Result{PerProc: make([]ProcStats, len(m.procs))}
	var end int64
	for i, p := range m.procs {
		res.PerProc[i] = p.snapshot()
		end = max(end, p.clock)
	}
	res.TimeNs = nsOf(end)
	if m.checker != nil {
		// End-of-run structural checks: accounting identities, counter
		// conservation, trace/Tx alignment (see paranoid.go).
		for i, p := range m.procs {
			p.pc.finishRun(p, res.PerProc[i])
		}
	}
	if tr != nil {
		for _, p := range m.procs {
			p.tr.CloseSpan(nsOf(p.clock))
		}
		tr.TimeNs = res.TimeNs
		fillMetrics(tr, res)
		res.Trace = tr
	}
	return res, nil
}

// fillMetrics flattens the run's statistics into the trace's
// machine-readable metrics map: whole-run and per-phase breakdowns,
// traffic by coherence-transaction class, and cache/TLB rates. Keys are
// stable, so identical runs produce identical metric exports.
func fillMetrics(tr *trace.Trace, res *Result) {
	var traffic Traffic
	var accesses, misses, writebacks, tlbMisses uint64
	phases := make(map[string]Breakdown)
	for _, ps := range res.PerProc {
		traffic.RemoteBytes += ps.Traffic.RemoteBytes
		traffic.Messages += ps.Traffic.Messages
		traffic.ProtocolTransactions += ps.Traffic.ProtocolTransactions
		accesses += ps.CacheAccesses
		misses += ps.CacheMisses
		writebacks += ps.Writebacks
		tlbMisses += ps.TLBMisses
		for name, b := range ps.Phases {
			acc := phases[name]
			acc.Add(b)
			phases[name] = acc
		}
	}
	tr.AddMetric("time_ns", res.TimeNs)
	tr.AddMetric("procs", float64(len(res.PerProc)))
	addBreakdown := func(prefix string, b Breakdown) {
		tr.AddMetric(prefix+".busy_ns", b.Busy)
		tr.AddMetric(prefix+".lmem_ns", b.LMem)
		tr.AddMetric(prefix+".rmem_ns", b.RMem)
		tr.AddMetric(prefix+".sync_ns", b.Sync)
	}
	addBreakdown("breakdown", res.TotalBreakdown())
	for name, b := range phases {
		addBreakdown("phase."+name, b)
	}
	tr.AddMetric("traffic.remote_bytes", float64(traffic.RemoteBytes))
	tr.AddMetric("traffic.messages", float64(traffic.Messages))
	tr.AddMetric("traffic.protocol_transactions", float64(traffic.ProtocolTransactions))
	tx := tr.TxTotals()
	for c := trace.TxClass(0); c < trace.NumTxClasses; c++ {
		tr.AddMetric("tx."+c.String(), float64(tx[c]))
	}
	tr.AddMetric("cache.accesses", float64(accesses))
	tr.AddMetric("cache.misses", float64(misses))
	tr.AddMetric("cache.writebacks", float64(writebacks))
	if accesses > 0 {
		tr.AddMetric("cache.miss_rate", float64(misses)/float64(accesses))
	} else {
		tr.AddMetric("cache.miss_rate", 0)
	}
	tr.AddMetric("tlb.misses", float64(tlbMisses))
	tr.AddMetric("events", float64(tr.EventCount()))
	tr.AddMetric("spans", float64(tr.SpanCount()))
}

// ResetMemory flushes every processor's cache and TLB (e.g. between
// unrelated experiments sharing one machine).
func (m *Machine) ResetMemory() {
	for _, p := range m.procs {
		dirty := p.cache.Flush()
		p.tlb.Flush()
		if p.pc != nil {
			p.pc.checkFlush(p, dirty)
		}
	}
}
