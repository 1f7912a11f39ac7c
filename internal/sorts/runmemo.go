package sorts

import (
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/machine"
)

// runMemo shares a run's replicated host work among its processors. The
// message-passing and one-sided programs let every process derive the
// exchange plan, and the splitters, "locally and redundantly" from
// vectors a collective delivered to all of them alike. The simulation
// charges each processor for that work; the host need not repeat it: the
// k-th request of every processor is the same SPMD step, so the first
// goroutine to arrive builds the step's value and the others wait for it
// and read it. Each backend creates one memo in alloc, so it lives as
// long as the backend value that serves one run.
//
// Two rules keep the sharing invisible to the simulation. A build
// closure is pure host work: it may not touch the *machine.Proc (charge
// time, communicate, synchronize — the waiters are blocked on the host,
// not in virtual time) and may not keep a reference to the gathered rows
// it reads, which can alias buffers the next collective overwrites. And
// a published value is immutable: every processor holds the same one.
type runMemo struct {
	ck *check.Checker // non-nil in paranoid runs
	// next[i] is the ordinal of processor i's next step; entry i belongs
	// to processor i's goroutine.
	next []int

	mu sync.Mutex
	// live holds the steps some but not yet all processors have taken.
	live map[int]*memoStep
}

type memoStep struct {
	once  sync.Once
	value any
	taken int
}

func newRunMemo(m *machine.Machine) *runMemo {
	return &runMemo{ck: m.Checker(), next: make([]int, m.Procs()), live: make(map[int]*memoStep)}
}

// inputDiff is the first place where a processor's own inputs to a
// replicated step differ from the inputs the shared value was built
// from.
type inputDiff struct {
	row, col    int
	shared, own int64
}

// memoObserver, when a test sets it, sees every value a processor takes
// from a memo and whether that processor built it.
var memoObserver func(r *runMemo, proc, step int, value any, built bool)

// shared returns the value of processor p's next replicated step, which
// build computes on whichever processor gets there first. The step is
// forgotten once every processor has taken it. In a paranoid run differs
// compares the value with this processor's own inputs, so a collective
// that hands processors different rows is reported, not averaged away;
// normal runs skip the comparison, which costs what the sharing saves.
func shared[T any](r *runMemo, p *machine.Proc, build func() T, differs func(T) *inputDiff) T {
	me := p.ID
	k := r.next[me]
	r.next[me]++
	r.mu.Lock()
	s := r.live[k]
	if s == nil {
		s = &memoStep{}
		r.live[k] = s
	}
	if s.taken++; s.taken == len(r.next) {
		delete(r.live, k)
	}
	r.mu.Unlock()
	built := false
	s.once.Do(func() {
		s.value = build()
		built = true
	})
	v := s.value.(T)
	if r.ck != nil {
		if d := differs(v); d != nil {
			r.ck.Report(check.ReplicatedInput(me, p.Phase(), k, d.row, d.col, d.shared, d.own))
		}
	}
	if observe := memoObserver; observe != nil {
		observe(r, me, k, v, built)
	}
	return v
}

// plan returns the placed plan of a collective step that delivered the
// same histogram rows to every processor.
func (r *runMemo) plan(p *machine.Proc, hists [][]int32, parts []int64) *chunkPlan {
	return shared(r, p,
		func() *chunkPlan { return newChunkPlan(hists, parts) },
		func(pl *chunkPlan) *inputDiff { return pl.differs(hists) })
}

// mergedPool returns the sorted pool of every processor's samples;
// gather returns a fresh copy of the calling processor's collected pool.
func (r *runMemo) mergedPool(p *machine.Proc, gather func() []uint32) []uint32 {
	sorted := func() []uint32 {
		pool := gather()
		slices.Sort(pool)
		return pool
	}
	return shared(r, p, sorted, func(pool []uint32) *inputDiff {
		own := sorted()
		for i := 0; i < min(len(own), len(pool)); i++ {
			if own[i] != pool[i] {
				return &inputDiff{col: i, shared: int64(pool[i]), own: int64(own[i])}
			}
		}
		if len(own) != len(pool) {
			return &inputDiff{col: min(len(own), len(pool)), shared: int64(len(pool)), own: int64(len(own))}
		}
		return nil
	})
}
