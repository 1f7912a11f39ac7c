package sorts

import (
	"slices"

	"repro/internal/check"
	"repro/internal/machine"
)

// The message-passing and one-sided programs let every process derive the
// exchange plan, and the splitters, "locally and redundantly" from
// vectors a collective delivered to all of them alike. The simulation
// charges each processor for that work; the host need not repeat it: the
// processors meet at the machine's gate (machine.Share), the last to
// arrive builds the step's value and every processor takes that one
// immutable value. A build closure reads only what every processor holds
// alike and may not keep a reference to the gathered rows it reads,
// which can alias buffers the next collective overwrites.

// inputDiff is the first place where a processor's own inputs to a
// replicated step differ from the inputs the shared value was built
// from.
type inputDiff struct {
	row, col    int
	shared, own int64
}

// shared returns the value of processor p's next replicated step, which
// build computes on whichever processor arrives last. In a paranoid run
// differs compares the value with this processor's own inputs, so a
// collective that hands processors different rows is reported, not
// averaged away; normal runs skip the comparison, which costs what the
// sharing saves.
func shared[T any](p *machine.Proc, build func() T, differs func(T) *inputDiff) T {
	v, step := machine.Share(p, build)
	if ck := p.Machine().Checker(); ck != nil {
		if d := differs(v); d != nil {
			ck.Report(check.ReplicatedInput(p.ID, p.Phase(), step, d.row, d.col, d.shared, d.own))
		}
	}
	return v
}

// sharedPlan returns the placed plan of a collective step that delivered
// the same histogram rows to every processor.
func sharedPlan(p *machine.Proc, hists [][]int32, parts []int64) *chunkPlan {
	return shared(p,
		func() *chunkPlan { return newChunkPlan(hists, parts) },
		func(pl *chunkPlan) *inputDiff { return pl.differs(hists) })
}

// mergedPool returns the sorted pool of every processor's samples;
// gather returns a fresh copy of the calling processor's collected pool.
func mergedPool(p *machine.Proc, gather func() []uint32) []uint32 {
	sorted := func() []uint32 {
		pool := gather()
		slices.Sort(pool)
		return pool
	}
	return shared(p, sorted, func(pool []uint32) *inputDiff {
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
