package repro

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keys"
)

// baselineTime returns (computing and caching on first use) the
// sequential radix sort time for n keys of the given distribution, the
// baseline every speedup divides by, through the harness's shared cache.
func (h *Harness) baselineTime(n int, dist keys.Dist) (float64, error) {
	e := program(Radix, Seq, 1)
	e.Dist = dist
	c, err := h.sequential(h.experiment(SizeClass{PaperN: n, ScaledN: n}, e))
	return c.TimeNs, err
}

// TestBaselineTimeConcurrentSingleflight hammers baselineTime from 8
// goroutines (run under -race in CI) and asserts the baseline experiment
// executed exactly once per key: the unsynchronized map it replaces was
// both a data race and a source of duplicated sequential runs.
func TestBaselineTimeConcurrentSingleflight(t *testing.T) {
	var computed atomic.Int64
	h := NewHarness(Options{
		Progress: func(format string, _ ...any) {
			if strings.HasPrefix(format, "baseline") {
				computed.Add(1)
			}
		},
	})
	ns := []int{1 << 12, 1 << 13}
	const workers = 8
	const iters = 4
	times := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, n := range ns {
					v, err := h.baselineTime(n, keys.Gauss)
					if err != nil {
						t.Error(err)
						return
					}
					times[w] = append(times[w], v)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := computed.Load(); got != int64(len(ns)) {
		t.Errorf("baseline experiments ran %d times, want exactly %d (one per key)", got, len(ns))
	}
	if len(h.baseline) != len(ns) {
		t.Errorf("baseline cache holds %d entries, want %d", len(h.baseline), len(ns))
	}
	for w := 1; w < workers; w++ {
		for i, v := range times[w] {
			if v != times[0][i] {
				t.Fatalf("worker %d saw baseline %v at call %d, worker 0 saw %v", w, v, i, times[0][i])
			}
		}
	}
}

// determinismGrid is a small mixed grid covering both algorithms and all
// parallel models.
func determinismGrid() []Experiment {
	var exps []Experiment
	for _, alg := range []Algorithm{Radix, Sample} {
		for _, mo := range Models(alg) {
			exps = append(exps, Experiment{
				Algorithm: alg, Model: mo, N: 1 << 13, Procs: 4, Radix: 7, Dist: keys.Gauss,
			})
		}
	}
	exps = append(exps, Experiment{
		Algorithm: Radix, Model: Seq, N: 1 << 12, Procs: 1, Radix: 8, Dist: keys.Random,
	})
	return exps
}

// TestRunCellsParallelSerialDeterminism runs the same experiment grid
// with parallelism 1 and 8 and asserts identical simulated times and
// per-processor breakdowns for every cell, in submission order: the
// virtual-time model must be independent of host scheduling.
func TestRunCellsParallelSerialDeterminism(t *testing.T) {
	exps := determinismGrid()
	serial, err := NewHarness(Options{Parallelism: 1}).RunCells(exps)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewHarness(Options{Parallelism: 8}).RunCells(exps)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		s, p := serial[i], parallel[i]
		// A cell out of order would carry another experiment's shape.
		if len(s.PerProc) != e.Procs {
			t.Errorf("cell %d (%s/%s): %d breakdowns, want %d", i, e.Algorithm, e.Model, len(s.PerProc), e.Procs)
		}
		if s.TimeNs != p.TimeNs {
			t.Errorf("cell %d (%s/%s): TimeNs %v (serial) != %v (parallel)", i, e.Algorithm, e.Model, s.TimeNs, p.TimeNs)
		}
		if len(s.PerProc) != len(p.PerProc) {
			t.Fatalf("cell %d: breakdown lengths differ: %d vs %d", i, len(s.PerProc), len(p.PerProc))
		}
		for j := range s.PerProc {
			if s.PerProc[j] != p.PerProc[j] {
				t.Errorf("cell %d proc %d: breakdown %+v (serial) != %+v (parallel)", i, j, s.PerProc[j], p.PerProc[j])
			}
		}
	}
	// Outcomes carry their experiment, whatever ran beside them.
	for _, e := range exps {
		if out, err := Run(e); err != nil || out.Experiment != e {
			t.Errorf("Run(%+v): err %v, outcome for %+v", e, err, out.Experiment)
		}
	}
}

// TestHarnessParallelByteIdentical renders the same figures with
// Parallelism 1 and 8 and asserts byte-identical output — the guarantee
// cmd/paperfigs -j relies on.
func TestHarnessParallelByteIdentical(t *testing.T) {
	opts := func(par int) Options {
		return Options{
			Procs: []int{4, 8}, Sizes: SizeClasses[:1],
			RadixSweep: []int{7, 8}, TableRadixes: []int{8},
			Parallelism: par,
		}
	}
	render := func(par int) []string {
		h := NewHarness(opts(par))
		t1, _, err := h.Table1()
		if err != nil {
			t.Fatal(err)
		}
		f3, err := h.Figure3()
		if err != nil {
			t.Fatal(err)
		}
		f5, err := h.Figure5()
		if err != nil {
			t.Fatal(err)
		}
		f6, err := h.Figure6()
		if err != nil {
			t.Fatal(err)
		}
		bt, err := h.Tables23()
		if err != nil {
			t.Fatal(err)
		}
		return []string{
			t1.String(), f3.Table().String(), f5.Table().String(),
			f6.Table().String(), bt.Table2().String(), bt.Table3().String(),
		}
	}
	serial := render(1)
	parallel := render(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("output block %d differs between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestRunCellsError: a batch with an invalid cell fails with that cell's
// Validate error before any cell — the valid one ahead of it included —
// is simulated.
func TestRunCellsError(t *testing.T) {
	exps := []Experiment{
		{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4},
		{Algorithm: Radix, Model: SHMEM, N: -1, Procs: 4},
	}
	h := NewHarness(Options{Parallelism: 4})
	if _, err := h.RunCells(exps); err == nil || !strings.Contains(err.Error(), "N must be positive") {
		t.Fatalf("RunCells with an invalid cell returned %v", err)
	}
	if runs := h.Stats().Runs; runs != 0 {
		t.Errorf("%d cells simulated before the invalid one was reported, want 0", runs)
	}
}

// TestRunCellsEmpty covers the degenerate empty grid.
func TestRunCellsEmpty(t *testing.T) {
	cells, err := NewHarness(Options{Parallelism: 4}).RunCells(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("got %d cells for empty grid", len(cells))
	}
}

// TestRunCellsSequentialShared: a sequential cell reports its breakdown
// like any other, and counts once in the harness's runs however many
// cells of however many batches share it.
func TestRunCellsSequentialShared(t *testing.T) {
	seq := Experiment{Algorithm: Radix, Model: Seq, N: 1 << 12, Procs: 1, Radix: 8}
	h := NewHarness(Options{Parallelism: 4})
	for batch := 0; batch < 2; batch++ {
		cells, err := h.RunCells([]Experiment{seq, seq, seq})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if c.TimeNs <= 0 || len(c.PerProc) != 1 || c.PerProc[0].Total() <= 0 || c.TimeNs != cells[0].TimeNs {
				t.Errorf("batch %d cell %d: time %v, breakdowns %+v", batch, i, c.TimeNs, c.PerProc)
			}
		}
	}
	if st := h.Stats(); st.Runs != 1 {
		t.Errorf("six cells sharing one sequential experiment counted %d runs, want 1", st.Runs)
	}
}

// TestRunInvalidRadix covers the new Radix range validation.
func TestRunInvalidRadix(t *testing.T) {
	for _, r := range []int{-1, 25} {
		if _, err := Run(Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: r}); err == nil {
			t.Errorf("Run accepted Radix=%d", r)
		}
	}
}

// TestProgressSerialized asserts Progress is never invoked concurrently
// under a parallel grid.
func TestProgressSerialized(t *testing.T) {
	var inFlight atomic.Int64
	var overlapped atomic.Bool
	h := NewHarness(Options{
		Procs: []int{4}, Sizes: SizeClasses[:1], Parallelism: 8,
		Progress: func(string, ...any) {
			if inFlight.Add(1) > 1 {
				overlapped.Store(true)
			}
			inFlight.Add(-1)
		},
	})
	if _, err := h.Figure3(); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Error("Progress callback ran concurrently")
	}
}
