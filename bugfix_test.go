package repro

// Regression tests for the long-lived-server hardening fixes: the
// poisoned baseline error cache, the panic deadlock in the cell
// scheduler, and the unbounded harness trace buffer. Each test fails
// against the pre-fix code (stale error forever / hang / growth) and
// pins the fixed behavior at serial and parallel settings.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// TestBaselineErrorNotCached: a failed sequential baseline must not
// poison its singleflight slot — the first call reports the injected
// error, the second call re-attempts and succeeds.
func TestBaselineErrorNotCached(t *testing.T) {
	injected := errors.New("injected baseline failure")
	h := NewHarness(Options{})
	failures := 1
	h.simulate = func(e Experiment) (*Outcome, error) {
		if failures > 0 {
			failures--
			return nil, injected
		}
		return Run(e)
	}
	if _, err := h.baselineTime(1<<12, keys.Gauss); !errors.Is(err, injected) {
		t.Fatalf("first baselineTime error = %v, want the injected failure", err)
	}
	if len(h.baseline) != 0 {
		t.Fatalf("failed baseline left %d poisoned cache entries", len(h.baseline))
	}
	v, err := h.baselineTime(1<<12, keys.Gauss)
	if err != nil {
		t.Fatalf("second baselineTime still fails: %v (the error was cached)", err)
	}
	if v <= 0 {
		t.Fatalf("second baselineTime = %v, want a positive time", v)
	}
	// And the success is cached normally: no further run.
	h.simulate = func(Experiment) (*Outcome, error) {
		t.Error("cached success was recomputed")
		return nil, errors.New("unreachable")
	}
	if v2, err := h.baselineTime(1<<12, keys.Gauss); err != nil || v2 != v {
		t.Fatalf("third baselineTime = %v, %v; want cached %v", v2, err, v)
	}
}

// TestBaselineErrorConcurrentRetry: every waiter of a failed flight
// sees the error, and the key stays retryable under concurrency.
func TestBaselineErrorConcurrentRetry(t *testing.T) {
	injected := errors.New("injected baseline failure")
	h := NewHarness(Options{})
	var mu sync.Mutex
	failures := 1
	h.simulate = func(e Experiment) (*Outcome, error) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			return nil, injected
		}
		return Run(e)
	}
	const workers = 8
	var wg sync.WaitGroup
	sawErr := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := h.baselineTime(1<<12, keys.Gauss); err != nil {
				if !errors.Is(err, injected) {
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
				sawErr[w] = true
			}
		}(w)
	}
	wg.Wait()
	// However the flights interleaved, a retry after the dust settles
	// must succeed.
	if _, err := h.baselineTime(1<<12, keys.Gauss); err != nil {
		t.Fatalf("baselineTime still failing after all workers done: %v", err)
	}
	if len(h.baseline) != 1 {
		t.Errorf("baseline cache holds %d entries, want 1 (the final success)", len(h.baseline))
	}
}

// TestBaselinePanicNotCached: a panicking sequential baseline must fail
// its singleflight slot like an error does. The panic used to escape the
// sync.Once unrecorded, marking it done with a zero time and no error:
// the cell that panicked reported it, and every later figure dividing by
// that baseline silently got 0.
func TestBaselinePanicNotCached(t *testing.T) {
	h := NewHarness(Options{})
	panics := 1
	h.simulate = func(e Experiment) (*Outcome, error) {
		if panics > 0 {
			panics--
			panic("injected baseline panic")
		}
		return Run(e)
	}
	func() {
		defer func() {
			if r := recover(); r != "injected baseline panic" {
				t.Fatalf("first baselineTime recovered %v, want the injected panic", r)
			}
		}()
		h.baselineTime(1<<12, keys.Gauss)
	}()
	if len(h.baseline) != 0 {
		t.Fatalf("panicked baseline left %d poisoned cache entries", len(h.baseline))
	}
	v, err := h.baselineTime(1<<12, keys.Gauss)
	if err != nil || v <= 0 {
		t.Fatalf("second baselineTime = %v, %v; want the real time (the panic was cached as a zero)", v, err)
	}
	if runs := h.Stats().Runs; runs != 1 {
		t.Errorf("Stats().Runs = %d, want 1 (the panicked attempt is not a run)", runs)
	}
}

// panicErrorFrom digs the *PanicError out of an error.
func panicErrorFrom(t *testing.T, err error) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PanicError", err, err)
	}
	return pe
}

// TestForEachIndexPanicNoDeadlock is the deadlock regression: a body
// that panics must come back as a structured error at 1 and 8 workers —
// before the fix the panicking worker died, the submit loop blocked
// forever on the work channel, and this test hung.
func TestForEachIndexPanicNoDeadlock(t *testing.T) {
	for _, par := range []int{1, 8} {
		par := par
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			const n = 64
			ran := make([]bool, n)
			done := make(chan []*PanicError, 1)
			go func() {
				done <- ForEachIndex(par, n, func(i int) {
					ran[i] = true
					if i == 5 || i == 23 {
						panic(fmt.Sprintf("cell %d exploded", i))
					}
				})
			}()
			var panics []*PanicError
			select {
			case panics = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("ForEachIndex deadlocked on a panicking body")
			}
			if len(panics) != 2 {
				t.Fatalf("got %d panic errors, want 2: %v", len(panics), panics)
			}
			// Sorted by cell index, each carrying value and stack.
			for i, want := range []int{5, 23} {
				pe := panics[i]
				if pe.Index != want {
					t.Errorf("panic %d has index %d, want %d", i, pe.Index, want)
				}
				if !strings.Contains(pe.Error(), fmt.Sprintf("cell %d exploded", want)) {
					t.Errorf("panic error lost its value: %v", pe.Error())
				}
				if !strings.Contains(pe.Error(), "bugfix_test.go") {
					t.Errorf("panic error carries no useful stack: %v", pe.Error())
				}
			}
			// Every other cell still ran: the pool survived the panics.
			for i, ok := range ran {
				if !ok {
					t.Errorf("cell %d never ran after an earlier panic", i)
				}
			}
		})
	}
}

// TestRunGridPanicStructuredError: a panic inside a harness grid cell
// (injected via the simulate hook) surfaces as that cell's error from
// the figure driver instead of hanging or unwinding, at -j 1 and -j 8.
func TestRunGridPanicStructuredError(t *testing.T) {
	for _, par := range []int{1, 8} {
		h := NewHarness(Options{Sizes: SizeClasses[:1], Procs: []int{4}, Parallelism: par})
		h.simulate = func(Experiment) (*Outcome, error) { panic("baseline exploded") }
		done := make(chan error, 1)
		go func() {
			_, _, err := h.Table1()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("par=%d: Table1 with panicking cell returned nil error", par)
			}
			pe := panicErrorFrom(t, err)
			if pe.Index != 0 || !strings.Contains(pe.Error(), "baseline exploded") {
				t.Errorf("par=%d: panic error = index %d, %q", par, pe.Index, pe.Error())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("par=%d: Table1 deadlocked on a panicking cell", par)
		}
	}
}

// TestRunGridDeadlockTypedError: an MPI program that deadlocks inside a
// cell is that cell's error, and still a *machine.StrandedError naming
// the stuck ranks when it comes out of the figure driver.
func TestRunGridDeadlockTypedError(t *testing.T) {
	h := NewHarness(Options{Sizes: SizeClasses[:1], Procs: []int{4}, Parallelism: 2})
	h.simulate = func(Experiment) (*Outcome, error) {
		m := machine.MustNew(machine.Origin2000Scaled(4))
		c := mpi.New(m, mpi.DefaultDirect())
		// Everyone sends one rank up and waits for the rank two up.
		_, err := m.Run(func(p *machine.Proc) { c.SendRecv(p, (p.ID+1)%4, 0, nil, 8, (p.ID+2)%4, 0, 0) })
		return nil, err
	}
	_, _, err := h.Table1()
	var se *machine.StrandedError
	if !errors.As(err, &se) || len(se.Parked) != 4 || se.Parked[1] != (machine.Parked{Proc: 1, At: "recv←3"}) {
		t.Fatalf("Table1 returned %v, want a *machine.StrandedError naming four ranks inside", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Errorf("the deadlock came out of the scheduler as a panic: %v", pe)
	}
}

// TestGridEarliestCellOrderErrorWins pins RunCells' multi-error rule:
// the earliest failing cell in CELL order wins even when a later cell's
// failure completes first in wall-clock. Cell 0 is a baseline that
// fails slowly, cell 1 an experiment cell that fails instantly, both
// injected through the simulate hook.
func TestGridEarliestCellOrderErrorWins(t *testing.T) {
	errSlow, errFast := errors.New("slow early failure"), errors.New("fast late failure")
	for _, par := range []int{1, 8} {
		h := NewHarness(Options{Parallelism: par})
		h.simulate = func(e Experiment) (*Outcome, error) {
			if e.Model != Seq {
				return nil, errFast
			}
			time.Sleep(100 * time.Millisecond)
			return nil, errSlow
		}
		_, err := h.RunCells([]Experiment{
			{Algorithm: Radix, Model: Seq, N: 1 << 12, Procs: 1, Radix: 8},
			{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: 8},
		})
		if !errors.Is(err, errSlow) {
			t.Errorf("par=%d: RunCells error = %v, want the slow cell-0 failure (cell order, not completion order)", par, err)
		}
	}
}

// TestGridValidatesBeforeRunning: a figure with one impossible cell
// fails with that cell's Validate error before any cell is simulated —
// no run counted, no Progress line — instead of after the valid cells
// have all run to completion. The impossible cell is a radix the key
// generator refuses, or a machine the hypercube cannot wire (12
// processors make 3 routers).
func TestGridValidatesBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		figure func(*Harness) error
		bad    Experiment
	}{
		{"radixes 6,20", Options{Procs: []int{4}, Sizes: SizeClasses[:2], RadixSweep: []int{6, 20}},
			func(h *Harness) error { _, err := h.Figure6(); return err },
			Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 16, Procs: 4, Radix: 20}},
		{"procs 12", Options{Procs: []int{12}, Sizes: SizeClasses[:1]},
			func(h *Harness) error { _, err := h.Figure1(); return err },
			Experiment{Algorithm: Radix, Model: MPISGI, N: 1 << 16, Procs: 12}},
	} {
		for _, par := range []int{1, 8} {
			lines := 0
			opts := tc.opts
			opts.Parallelism, opts.Progress = par, func(string, ...any) { lines++ }
			h := NewHarness(opts)
			err := tc.figure(h)
			want := tc.bad.Validate()
			if want == nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%s, par=%d: figure = %v, want the Validate error %v", tc.name, par, err, want)
			}
			if runs := h.Stats().Runs; runs != 0 || lines != 0 {
				t.Errorf("%s, par=%d: %d runs and %d Progress lines before the invalid cell was reported, want none", tc.name, par, runs, lines)
			}
		}
	}
}

// TestGridInterleaveDeterministic: baseline and experiment cells
// interleave in exact submission order in the result slice, with equal
// values at -j 1 and -j 8.
func TestGridInterleaveDeterministic(t *testing.T) {
	seq := func(n int) Experiment {
		return Experiment{Algorithm: Radix, Model: Seq, N: n, Procs: 1, Radix: 8}
	}
	exps := []Experiment{
		seq(1 << 12),
		{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: 8},
		seq(1 << 13),
		{Algorithm: Sample, Model: CCSAS, N: 1 << 13, Procs: 4, Radix: 8},
		seq(1 << 12), // repeat: singleflight, same value
	}
	run := func(par int) []float64 {
		h := NewHarness(Options{Parallelism: par})
		cells, err := h.RunCells(exps)
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for i, c := range cells {
			if c.TimeNs <= 0 || len(c.PerProc) != exps[i].Procs {
				t.Errorf("par=%d cell %d: got %d breakdowns and time %v", par, i, len(c.PerProc), c.TimeNs)
			}
			times = append(times, c.TimeNs)
		}
		if times[0] != times[4] {
			t.Errorf("par=%d: repeated baseline cells disagree: %v vs %v", par, times[0], times[4])
		}
		if runs := h.Stats().Runs; runs != 4 {
			t.Errorf("par=%d: %d runs for 5 cells with one repeated baseline, want 4", par, runs)
		}
		return times
	}
	j1 := run(1)
	j8 := run(8)
	for i := range j1 {
		if j1[i] != j8[i] {
			t.Errorf("cell %d differs between -j 1 and -j 8: %v vs %v", i, j1[i], j8[i])
		}
	}
}

// TestRunExperimentKeepsNoTrace pins the trace ownership rule: a traced
// RunExperiment hands the trace out on the Outcome and parks nothing on
// the harness, so a long-lived process (cmd/simd) can run traced cells
// forever in bounded memory. Only the figures collect into Traces.
func TestRunExperimentKeepsNoTrace(t *testing.T) {
	h := NewHarness(Options{})
	e := Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: 8, Trace: true}
	out, err := h.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace() == nil {
		t.Error("traced RunExperiment returned an Outcome without its trace")
	}
	if got := len(h.Traces()); got != 0 {
		t.Errorf("after one traced RunExperiment, Traces() has %d entries, want 0", got)
	}
}

// TestRunExperimentHonorsRequestFields: unlike the figure drivers,
// RunExperiment must run the experiment exactly as given — its own
// Seed, not the harness Options' — while still counting Stats.
func TestRunExperimentHonorsRequestFields(t *testing.T) {
	h := NewHarness(Options{Seed: 999})
	e := Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: 8, Seed: 7}
	got, err := h.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.TimeNs != want.TimeNs {
		t.Errorf("RunExperiment TimeNs %v != direct Run %v (harness overrode the seed?)", got.TimeNs, want.TimeNs)
	}
	if got.Experiment.Seed != 7 {
		t.Errorf("outcome seed = %d, want the request's 7", got.Experiment.Seed)
	}
	st := h.Stats()
	if st.Runs != 1 || st.SimNs != got.TimeNs {
		t.Errorf("Stats = %+v, want 1 run of %v ns", st, got.TimeNs)
	}
}
