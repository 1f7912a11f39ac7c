package machine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func wantProcPanic(t *testing.T, err error, proc int, value any) {
	t.Helper()
	pp, ok := err.(*ProcPanic)
	if !ok {
		t.Fatalf("Run returned %T %v, want *ProcPanic", err, err)
	}
	if pp.Proc != proc || pp.Value != value {
		t.Errorf("Run reported processor %d: %v, want processor %d: %v", pp.Proc, pp.Value, proc, value)
	}
}

// A processor that panics before a barrier must not leave the others
// parked in it: Run promises to return the panic as its error.
func TestRunPanicBeforeBarrier(t *testing.T) {
	m := testMachine(t, 4)
	_, err := m.Run(func(p *Proc) {
		if p.ID == 2 {
			panic("boom")
		}
		m.Barrier(p)
		m.Barrier(p) // one reached after the abort unwinds as well
	})
	wantProcPanic(t, err, 2, "boom")

	// The abort does not outlive the run.
	res := mustRun(t, m, func(p *Proc) { m.Barrier(p) })
	if res.TimeNs == 0 {
		t.Error("the machine's barrier stayed aborted")
	}
}

func TestRunPanicBeforeRendezvous(t *testing.T) {
	m := testMachine(t, 4)
	_, err := m.Run(func(p *Proc) {
		if p.ID == 1 {
			panic("boom")
		}
		m.Rendezvous(p, func() { t.Error("the rendezvous completed without processor 1") })
	})
	wantProcPanic(t, err, 1, "boom")
}

// The last arrival runs alone and may blame the processor whose step it
// was driving; an error value stays reachable through Run's error.
func TestRendezvousLastArrival(t *testing.T) {
	m := testMachine(t, 4)
	calls := 0
	mustRun(t, m, func(p *Proc) {
		m.Rendezvous(p, func() {
			calls++
			for i := 0; i < m.Procs(); i++ {
				m.Proc(i).ComputeNs(float64(i))
			}
		})
		if p.Now() != float64(p.ID) {
			t.Errorf("processor %d: clock %v after the rendezvous", p.ID, p.Now())
		}
	})
	if calls != 1 {
		t.Errorf("last ran %d times", calls)
	}

	cause := errors.New("step failed")
	_, err := m.Run(func(p *Proc) {
		m.Rendezvous(p, func() { panic(Blame{Proc: 3, Value: cause}) })
	})
	wantProcPanic(t, err, 3, cause)
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is cannot see %v through %v", cause, err)
	}
}

// Processors that reach the gate for different collectives fail the run,
// naming both, instead of one side's closure serving the other; the
// machine's next run is unaffected.
func TestMismatchedCollectivesFail(t *testing.T) {
	m := testMachine(t, 4)
	defer m.SetArrivalOrderForTest(nil)
	// Processor 0 arrives first, processor 1 second.
	m.SetArrivalOrderForTest(func(proc, arrived int) bool { return proc == arrived })
	for _, tc := range []struct {
		kind string
		call func(p *Proc)
	}{
		{"rendezvous", func(p *Proc) { m.Rendezvous(p, func() { t.Error("a rendezvous completed") }) }},
		{"shared step", func(p *Proc) { Share(p, func() int { t.Error("a shared step was built"); return 0 }) }},
	} {
		_, err := m.Run(func(p *Proc) {
			if p.ID == 0 {
				m.Barrier(p)
			} else {
				tc.call(p)
			}
		})
		want := "processor 1 arrived at a " + tc.kind + " while processor 0 waits at a barrier"
		if pp, ok := err.(*ProcPanic); !ok || pp.Proc != 1 || !strings.Contains(pp.Error(), want) {
			t.Errorf("Run returned %v, want processor 1: %q", err, want)
		}
		if res := mustRun(t, m, func(p *Proc) { m.Barrier(p) }); res.TimeNs == 0 {
			t.Errorf("after the %s mismatch the next run's barrier cost nothing", tc.kind)
		}
	}
}

// Share builds each step's value once, on the last arrival, and hands
// every processor that one value and the step's ordinal, however many
// host threads schedule them; a build that panics aborts the run.
func TestShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const steps = 3
	for _, threads := range []int{1, 8} {
		runtime.GOMAXPROCS(threads)
		m := testMachine(t, 8)
		builds := 0
		got := make([][steps]*int, m.Procs())
		mustRun(t, m, func(p *Proc) {
			for k := 0; k < steps; k++ {
				v, step := Share(p, func() *int { builds++; return new(int) })
				if step != k {
					t.Errorf("GOMAXPROCS=%d: processor %d took step %d as %d", threads, p.ID, k, step)
				}
				got[p.ID][k] = v
				m.Barrier(p)
			}
		})
		if builds != steps {
			t.Errorf("GOMAXPROCS=%d: %d builds for %d steps", threads, builds, steps)
		}
		for k := 0; k < steps; k++ {
			for i := range got {
				if got[i][k] != got[0][k] || k > 0 && got[i][k] == got[i][k-1] {
					t.Errorf("GOMAXPROCS=%d: processor %d took another value at step %d", threads, i, k)
				}
			}
		}
	}

	m := testMachine(t, 4)
	defer m.SetArrivalOrderForTest(nil)
	m.SetArrivalOrderForTest(func(proc, arrived int) bool { return proc == arrived })
	_, err := m.Run(func(p *Proc) { Share(p, func() int { panic("boom") }) })
	wantProcPanic(t, err, 3, "boom")
}

func TestRendezvousForcedArrivalOrder(t *testing.T) {
	m := testMachine(t, 8)
	defer m.SetArrivalOrderForTest(nil)
	// Reversed: processor 0 arrives last, so it runs last.
	m.SetArrivalOrderForTest(func(proc, arrived int) bool { return proc == m.Procs()-1-arrived })
	for i := 0; i < 3; i++ {
		ran := -1
		var order []int
		mustRun(t, m, func(p *Proc) {
			m.Rendezvous(p, func() { ran = p.ID })
			m.Rendezvous(p, func() { order = append(order, p.ID) })
		})
		if ran != 0 || len(order) != 1 || order[0] != 0 {
			t.Errorf("last arrivals %d, %v; want processor 0 both times", ran, order)
		}
	}
}

// A processor whose body returns while the others wait at the gate, or
// before they arrive, must not leave them parked: Run fails with a
// *StrandedError naming each parked processor, where it waits and its
// phase, and the returned processors, at every kind of episode and at a
// mailbox, and the next run is unaffected.
func TestStrandedEpisodesFail(t *testing.T) {
	m := testMachine(t, 4)
	// untilGate spins until cond holds of the gate's state.
	untilGate := func(cond func(g *gate) bool) {
		for {
			m.gate.mu.Lock()
			ok := cond(m.gate)
			m.gate.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	var boxes [4]Mailbox
	type strandCase struct {
		name   string
		body   func(p *Proc)
		parked []Parked
	}
	var cases []strandCase
	for _, tc := range []struct {
		kind string
		call func(p *Proc)
	}{
		{"barrier", func(p *Proc) { m.Barrier(p) }},
		{"rendezvous", func(p *Proc) { m.Rendezvous(p, func() { t.Error("a rendezvous completed") }) }},
		{"shared step", func(p *Proc) { Share(p, func() int { t.Error("a shared step was built"); return 0 }) }},
		{"flag", func(p *Proc) { boxes[p.ID].Take(p) }},
		{"flag (full)", func(p *Proc) { boxes[p.ID].Put(p, 1); boxes[p.ID].Put(p, 2) }},
	} {
		parked := []Parked{{1, tc.kind, "exchange"}, {2, tc.kind, "exchange"}, {3, tc.kind, "exchange"}}
		for _, returnsFirst := range []bool{true, false} {
			cases = append(cases, strandCase{fmt.Sprintf("%s, processor 0 returning first=%v", tc.kind, returnsFirst),
				func(p *Proc) {
					p.SetPhase("exchange")
					if p.ID == 0 {
						if !returnsFirst {
							untilGate(func(g *gate) bool { return g.parked == 3 })
						}
						return
					}
					if returnsFirst {
						untilGate(func(g *gate) bool { return g.left == 1 })
					}
					tc.call(p)
				}, parked})
		}
	}
	// A barrier and a flag stranded in one run, each waiter with its own
	// phase label.
	cases = append(cases, strandCase{"barrier and flag", func(p *Proc) {
		switch p.ID {
		case 1:
			p.SetPhase("histogram")
			boxes[1].Take(p)
		case 2, 3:
			p.SetPhase("exchange")
			m.Barrier(p)
		}
	}, []Parked{{1, "flag", "histogram"}, {2, "barrier", "exchange"}, {3, "barrier", "exchange"}}})
	for _, tc := range cases {
		_, err := m.Run(tc.body)
		se, ok := err.(*StrandedError)
		if !ok {
			t.Fatalf("%s: Run returned %T %v, want *StrandedError", tc.name, err, err)
		}
		if !slices.Equal(se.Parked, tc.parked) || !slices.Equal(se.Returned, []int{0}) {
			t.Errorf("%s: %+v", tc.name, se)
		}
		want := fmt.Sprintf(`processor 3 at %s in phase %q; processors [0] returned`, tc.parked[2].At, tc.parked[2].Phase)
		if !strings.Contains(se.Error(), want) {
			t.Errorf("%q does not say %q", se.Error(), want)
		}
		if res := mustRun(t, m, func(p *Proc) { m.Barrier(p) }); res.TimeNs == 0 {
			t.Errorf("after %s stranded the next run's barrier cost nothing", tc.name)
		}
	}
}
