package machine

import "math"

// Virtual time is kept in integer picoseconds: clocks, breakdown totals,
// barrier times and memoized prices. Integer sums are exact, so a total
// does not depend on the order or grouping of its charges. The exported
// API speaks float64 nanoseconds and converts through psOf and nsOf; a
// charge that is not a whole number of picoseconds (a contention-scaled
// one, a library's cost expression) rounds once, in psOf.

// psOf converts ns nanoseconds to the nearest picosecond.
func psOf(ns float64) int64 { return int64(math.Round(ns * 1e3)) }

// nsOf converts ps picoseconds to nanoseconds.
func nsOf(ps int64) float64 { return float64(ps) / 1e3 }

// bucket indexes a ledger by the paper's four categories.
type bucket uint8

const (
	bBusy bucket = iota
	bLMem
	bRMem
	bSync
)

// ledger is a Breakdown in picoseconds: what a processor accumulates,
// whole-run and per phase.
type ledger [4]int64

func (l *ledger) total() int64 { return l[bBusy] + l[bLMem] + l[bRMem] + l[bSync] }

func (l *ledger) breakdown() Breakdown {
	return Breakdown{Busy: nsOf(l[bBusy]), LMem: nsOf(l[bLMem]), RMem: nsOf(l[bRMem]), Sync: nsOf(l[bSync])}
}

// Breakdown is the paper's per-processor execution-time decomposition,
// all in nanoseconds of simulated time.
type Breakdown struct {
	// Busy is CPU time executing instructions, assuming no memory stalls.
	Busy float64
	// LMem is stall time for cache misses satisfied by local memory
	// (includes TLB refills).
	LMem float64
	// RMem is stall time communicating remote data.
	RMem float64
	// Sync is time spent at synchronization events (barriers, message
	// waits, flow-control stalls).
	Sync float64
}

// Total returns the sum of all buckets.
func (b Breakdown) Total() float64 { return b.Busy + b.LMem + b.RMem + b.Sync }

// Mem returns LMem+RMem, the lumped MEM category the paper reports for
// CC-SAS programs (whose tools could not split local from remote).
func (b Breakdown) Mem() float64 { return b.LMem + b.RMem }

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Busy += o.Busy
	b.LMem += o.LMem
	b.RMem += o.RMem
	b.Sync += o.Sync
}

// Traffic counts the communication work one processor generated.
type Traffic struct {
	// RemoteBytes is the total bytes moved to or from remote nodes.
	RemoteBytes int64
	// Messages is the number of explicit messages or one-sided transfers.
	Messages int64
	// ProtocolTransactions is the number of coherence protocol
	// transactions (misses priced remotely, writebacks, invalidations).
	ProtocolTransactions int64
}

// ProcStats is everything recorded about one simulated processor.
type ProcStats struct {
	Breakdown Breakdown
	Traffic   Traffic
	// CacheAccesses/CacheMisses/TLBMisses summarize the memory models.
	CacheAccesses uint64
	CacheMisses   uint64
	Writebacks    uint64
	TLBMisses     uint64
	// Phases holds per-phase breakdowns when the program labeled its
	// phases with Proc.SetPhase.
	Phases map[string]Breakdown
}
