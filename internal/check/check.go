// Package check is the simulator's "paranoid mode": slow reference
// implementations and model invariants that shadow the fast simulation
// path access by access.
//
// The fast path (memoized pricing tables, the flat page→home table, the
// cache/TLB memo layers — see DESIGN.md §8) was argued correct mostly by
// byte-identical outputs. Paranoid mode turns that argument into a
// machine-checked one: when machine.Config.ParanoidSampleEvery is 1,
// every simulated access is replayed through unmemoized reference models
// (RefCache, RefTLB, the legacy region-walk home resolution, the live
// coherence protocol) and every disagreement is recorded as a structured
// Violation naming the processor, phase, address, and the fast-vs-
// reference values. Structural invariants — directory-transition
// legality, virtual-time monotonicity, the BUSY+LMEM+RMEM+SYNC
// accounting identity, and Sharing↔TxClass traffic conservation — are
// asserted as the run executes and when it finishes.
//
// The package is a leaf: it depends only on internal/cache (for the
// geometry types the reference models mirror). The machine layer owns
// the hook sites; this package owns the models and the violation log.
//
// Paranoid mode is for correctness work, not measurement: it slows the
// host down severalfold but never changes a simulated result (a paranoid
// run's outputs are byte-identical to a normal run's, enforced by the
// differential tests). When disabled it costs one nil check per hook
// site and zero allocations (TestParanoidDisabledZeroAlloc).
package check

import (
	"fmt"
	"sort"
	"sync"
)

// Violation is one detected disagreement between the fast path and a
// reference model, or one broken structural invariant.
type Violation struct {
	// Proc is the simulated processor that detected the violation.
	Proc int
	// Phase is the processor's phase label at detection time ("" when
	// outside any labeled phase or during end-of-run checks).
	Phase string
	// Addr is the simulated address involved, 0 when not address-bound.
	Addr uint64
	// Kind names the broken check (e.g. "cache-hit", "page-home",
	// "price-latency", "clock-monotonic", "phase-identity", "tx-conservation").
	Kind string
	// Fast and Ref describe the fast-path and reference values that
	// disagree (for invariant checks, Fast holds the observed state and
	// Ref the required one).
	Fast string
	Ref  string
}

// Error formats the violation as a one-line structured error.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s violation: proc=%d phase=%q addr=%#x fast=%s ref=%s",
		v.Kind, v.Proc, v.Phase, v.Addr, v.Fast, v.Ref)
}

// maxKept bounds how many violations a Checker stores verbatim; a broken
// oracle can disagree on every access of a multi-million-access run, and
// the first few disagreements per processor carry all the signal. The
// total count is always exact.
const maxKept = 64

// Checker collects violations from all processors of a paranoid run. It
// is safe for concurrent use (the simulator runs one goroutine per
// processor).
type Checker struct {
	mu    sync.Mutex
	count int
	kept  []*Violation
}

// New builds an empty checker.
func New() *Checker { return &Checker{} }

// Report records one violation. The first maxKept are kept verbatim;
// later ones only increment the count.
func (c *Checker) Report(v Violation) {
	c.mu.Lock()
	c.count++
	if len(c.kept) < maxKept {
		vc := v
		c.kept = append(c.kept, &vc)
	}
	c.mu.Unlock()
}

// Count returns the total number of violations reported so far.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Violations returns the kept violations in deterministic order: sorted
// by processor, preserving each processor's own report order (reports
// from different processors interleave under host scheduling; within one
// processor they are sequential).
func (c *Checker) Violations() []*Violation {
	c.mu.Lock()
	out := make([]*Violation, len(c.kept))
	copy(out, c.kept)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// Err returns nil when no violation was reported, and otherwise an error
// carrying the first (per-proc-ordered) violation and the total count.
func (c *Checker) Err() error {
	vs := c.Violations()
	n := c.Count()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return vs[0]
	}
	return fmt.Errorf("%d violations, first: %w", n, vs[0])
}

// KindReplicatedInput is reported when the sorting programs share one
// host computation among a run's processors (a collective step whose
// inputs every processor holds alike: an exchange plan, the merged
// sample pool) and a processor's own inputs differ from the ones the
// shared value was built from.
const KindReplicatedInput = "replicated-input-mismatch"

// ReplicatedInput builds that violation: step is the ordinal of the
// shared step within the run, (row, col) the first differing entry —
// contributing processor and bucket — with the value the shared result
// was built from (Fast) and the reporting processor's own (Ref).
func ReplicatedInput(proc int, phase string, step, row, col int, shared, own int64) Violation {
	return Violation{Proc: proc, Phase: phase, Kind: KindReplicatedInput,
		Fast: fmt.Sprintf("step=%d row=%d col=%d shared=%d", step, row, col, shared),
		Ref:  fmt.Sprintf("own=%d", own)}
}
