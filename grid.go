package repro

// The concurrent experiment scheduler. The paper's evaluation is a large
// grid of independent deterministic simulations — {algorithm × model ×
// size × processors × radix}, where algorithm now spans radix, sample,
// and PSRS — and, just as the paper's sorts exploit
// that permutation work is independent per processor, the harness
// exploits that the grid is independent per cell: cells run on a bounded
// worker pool and results are gathered in submission order, so every
// rendered table and figure is byte-identical to a serial run.
//
// Safety argument (audited; see DESIGN.md §5): each Run builds its own
// Machine, address space, caches and key slices, and every config a cell
// is built from (keys.GenConfig, machine.Config, sorts.Config with its
// mpi.Config) has value semantics. The internal packages hold two pieces
// of package-level mutable state: machine's slab pool, which concurrent
// cells share behind its mutex, and sorts' PSRS boundary-corruption test
// hook, which must not be set while runs are in flight. Besides the slab
// pool, the state shared across concurrent cells lives in the Harness:
// the baseline cache (guarded by singleflight entries), the work
// counters, the trace list and the Progress callback (serialized).

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/trace"
)

// PanicError is a panic recovered from one scheduled cell body,
// converted into a structured error: the index of the cell whose body
// panicked, the recovered panic value, and the goroutine stack captured
// at the recovery point. ForEachIndex recovers every cell panic this
// way, so a panicking cell is reported like any other failing cell
// instead of killing a pool worker (which would leave the submit loop
// blocked forever — the pre-fix deadlock). A simulated run never panics
// out of Machine.Run — its failure is an error — so a PanicError is a
// host bug: in a harness hook, a front end, or the scheduler's caller.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("repro: cell %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEachIndex runs fn(i) for every i in [0, n) on at most par worker
// goroutines and returns when all calls completed. par < 1 selects
// runtime.GOMAXPROCS(0).
//
// A panic in fn is recovered around that single call and returned as a
// *PanicError: the worker survives, every remaining index still runs,
// and the submitting loop cannot deadlock on a dead pool. One worker
// runs the indices in order, so a panicking body produces the same
// structured errors at any parallelism instead of unwinding the caller.
// The returned slice is sorted by cell index (nil when no cell
// panicked).
//
// This is the harness's cell scheduler, exported so long-running
// services (cmd/simd) can schedule their own bounded grids with the
// same panic containment.
func ForEachIndex(par, n int, fn func(i int)) []*PanicError {
	guard := func(i int) (pe *PanicError) {
		defer func() {
			if r := recover(); r != nil {
				pe = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		fn(i)
		return nil
	}
	if par < 1 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	idx := make(chan int)
	var (
		panics  []*PanicError
		wg      sync.WaitGroup
		panicMu sync.Mutex
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if pe := guard(i); pe != nil {
					panicMu.Lock()
					panics = append(panics, pe)
					panicMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	sort.Slice(panics, func(a, b int) bool { return panics[a].Index < panics[b].Index })
	return panics
}

// Cell is what the harness keeps of one executed experiment: what the
// tables, figures, ensembles and sweeps consume, not the Outcome with its
// n-key sorted array, which is garbage as soon as Run has verified it.
type Cell struct {
	// TimeNs is the simulated execution time.
	TimeNs float64
	// PerProc is the per-processor BUSY/LMEM/RMEM/SYNC split.
	PerProc []machine.Breakdown
	// Trace is the run's event trace, nil unless the experiment set Trace.
	Trace *trace.Trace
}

// cell simulates one experiment through RunExperiment and reduces the
// Outcome to its Cell.
func (h *Harness) cell(e Experiment) (Cell, error) {
	out, err := h.RunExperiment(e)
	if err != nil {
		return Cell{}, err
	}
	return Cell{out.TimeNs, out.Breakdowns(), out.Trace()}, nil
}

// RunCells is the one way to run a batch of cells: every table, figure,
// ensemble and sweep hands its expanded experiments here and reduces the
// results, which come back in the order submitted. The simulator's
// virtual time is a pure function of each experiment's inputs, so no
// result depends on Parallelism or host scheduling.
//
// Every cell is validated before the first is scheduled: a batch with
// one impossible cell fails at once instead of after simulating the
// rest. Cells then run on h.opts.Parallelism workers. A sequential
// (Model == Seq) cell goes through the singleflight baseline cache, every
// other cell through RunExperiment. On failure the earliest failing
// cell's error (in cell order) is returned; a panicking cell's is a
// *PanicError. Traces are appended to the harness in cell order once the
// whole batch has completed.
func (h *Harness) RunCells(exps []Experiment) ([]Cell, error) {
	for _, e := range exps {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	cells := make([]Cell, len(exps))
	errs := make([]error, len(exps))
	panics := ForEachIndex(h.opts.Parallelism, len(exps), func(i int) {
		if exps[i].Model == Seq {
			cells[i], errs[i] = h.sequential(exps[i])
		} else {
			cells[i], errs[i] = h.cell(exps[i])
		}
	})
	for _, pe := range panics {
		errs[pe.Index] = pe
	}
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	h.traceMu.Lock()
	for _, c := range cells {
		if c.Trace != nil {
			h.traces = append(h.traces, c.Trace)
		}
	}
	h.traceMu.Unlock()
	return cells, nil
}

// grid is one figure's cells laid out as sizes × rows: for each size
// class, its sequential baseline (when the figure divides by one) and
// then one cell per row, the rows being the same experiment templates
// under every size. Reductions address results by (size, row) instead of
// replaying the loops that submitted them.
type grid struct {
	exps   []Experiment
	cells  []Cell
	stride int // cells per size class
	lead   int // 1 when each size class starts with its baseline
}

// at returns the result of one row's cell under one size class.
func (g *grid) at(size, row int) Cell { return g.cells[size*g.stride+g.lead+row] }

// base returns a size class's sequential baseline time.
func (g *grid) base(size int) float64 { return g.cells[size*g.stride].TimeNs }

// runGrid expands sizes × rows into experiments (each completed by
// h.experiment) and executes them through RunCells.
func (h *Harness) runGrid(sizes []SizeClass, baseline bool, rows []Experiment) (*grid, error) {
	g := &grid{stride: len(rows)}
	if baseline {
		g.lead = 1
		g.stride++
	}
	for _, s := range sizes {
		if baseline {
			g.exps = append(g.exps, h.experiment(s, program(Radix, Seq, 1)))
		}
		for _, r := range rows {
			g.exps = append(g.exps, h.experiment(s, r))
		}
	}
	var err error
	g.cells, err = h.RunCells(g.exps)
	return g, err
}
