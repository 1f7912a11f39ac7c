package mpi

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
)

// A rank that panics before the phase must not leave the others parked
// in the gate.
func TestPanicBeforeGate(t *testing.T) {
	c := comm(t, 4, DefaultDirect())
	_, err := c.Machine().Run(func(p *machine.Proc) {
		if p.ID == 2 {
			panic("boom")
		}
		run(c, p)
	})
	pp, ok := err.(*machine.ProcPanic)
	if !ok || pp.Proc != 2 || pp.Value != "boom" {
		t.Errorf("Run returned %v, want processor 2: boom", err)
	}
}

// A rank that returns without joining a phase fails the run by name
// instead of leaving the other ranks parked in the gate.
func TestRankSkippingAPhaseStrandsTheOthers(t *testing.T) {
	c := comm(t, 4, DefaultDirect())
	_, err := c.Machine().Run(func(p *machine.Proc) {
		p.SetPhase("exchange")
		if p.ID != 2 {
			run(c, p, send((p.ID+1)%4, 0, nil, 8))
		}
	})
	var want []machine.Parked
	for _, rank := range []int{0, 1, 3} {
		want = append(want, machine.Parked{Proc: rank, At: "rendezvous", Phase: "exchange"})
	}
	se, ok := err.(*machine.StrandedError)
	if !ok || !slices.Equal(se.Parked, want) || !slices.Equal(se.Returned, []int{2}) {
		t.Errorf("Run returned %T %v, want ranks 0, 1, 3 stranded at a rendezvous by rank 2", err, err)
	}
}

// A step that panics is reported against the rank whose step it was,
// whichever rank's goroutine replayed it.
func TestStepPanicNamesItsRank(t *testing.T) {
	c := comm(t, 4, DefaultDirect())
	defer c.Machine().SetArrivalOrderForTest(nil)
	// Rank 0 arrives first: the replay runs on rank 3's goroutine.
	c.Machine().SetArrivalOrderForTest(func(proc, arrived int) bool { return proc == arrived })
	_, err := c.Machine().Run(func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, recv(0, 0, 0, nil))
		} else {
			run(c, p)
		}
	})
	pp, ok := err.(*machine.ProcPanic)
	if !ok || pp.Proc != 0 || !strings.Contains(pp.Error(), "rank 0 receiving from itself") {
		t.Errorf("Run returned %v, want processor 0's self-receive", err)
	}
}

// wantStranded checks that Run failed with a *machine.StrandedError
// naming exactly the given ranks' pending steps.
func wantStranded(t *testing.T, err error, want ...machine.Parked) {
	t.Helper()
	se, ok := err.(*machine.StrandedError)
	if !ok {
		t.Fatalf("Run returned %T %v, want a *machine.StrandedError", err, err)
	}
	if !slices.Equal(se.Parked, want) || se.Returned != nil {
		t.Errorf("stranded %+v, want %+v and none returned", se, want)
	}
}

func TestDeadlockBothReceiveFirst(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	_, err := c.Machine().Run(func(p *machine.Proc) {
		p.SetPhase("swap")
		run(c, p, recv(1-p.ID, 0, 0, nil), send(1-p.ID, 0, nil, 8))
	})
	wantStranded(t, err,
		machine.Parked{Proc: 0, At: "recv←1", Phase: "swap"},
		machine.Parked{Proc: 1, At: "recv←0", Phase: "swap"})
	if msg := err.Error(); !strings.Contains(msg, `processor 0 at recv←1 in phase "swap"`) {
		t.Errorf("message %q does not describe rank 0's step", msg)
	}
}

func TestDeadlockWindowFullNoReceive(t *testing.T) {
	c := comm(t, 2, DefaultDirect()) // 1-deep window
	_, err := c.Machine().Run(func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, send(1, 0, nil, 8), send(1, 1, nil, 8))
		} else {
			run(c, p)
		}
	})
	wantStranded(t, err, machine.Parked{Proc: 0, At: "send→1 (window full)"})
	if msg := err.Error(); !strings.Contains(msg, `processor 0 at send→1 (window full) in phase ""`) {
		t.Errorf("message %q does not describe rank 0's step", msg)
	}
}

// A message nobody receives in its phase would be read later, when the
// buffers its payload refers to have moved on.
func TestUnreceivedMessagePanics(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	_, err := c.Machine().Run(func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, send(1, 0, nil, 8))
		} else {
			run(c, p)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "from rank 0 to rank 1") {
		t.Errorf("Run returned %v, want the unreceived message named", err)
	}
}

// A window filled in one phase stalls the first send of the next: the
// per-pair state outlives the phase.
func TestWindowSpansPhases(t *testing.T) {
	c := comm(t, 2, DefaultDirect())
	mustRun(t, c.Machine(), func(p *machine.Proc) {
		if p.ID == 0 {
			run(c, p, send(1, 0, nil, 8))
			before := p.Stats().Breakdown.Sync
			run(c, p, send(1, 1, nil, 8))
			if p.Stats().Breakdown.Sync == before {
				t.Error("the second phase's send did not wait for the first phase's message to be consumed")
			}
		} else {
			slow := func(p *machine.Proc) { p.Compute(100000) }
			run(c, p, after(slow, recv(0, 0, 0, nil)))
			run(c, p, recv(0, 0, 0, nil))
		}
	})
}

// New must not pay for P² pairs up front: simd admits 1 024 ranks.
func TestNewIsCheapAt1024Ranks(t *testing.T) {
	cfg := machine.Origin2000Scaled(1024)
	cfg.Topology.Kind = "dragonfly"
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for _, lib := range []Config{DefaultDirect(), DefaultStaged()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := New(m, lib)
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 32 {
			t.Errorf("%v: New allocated %.1f MB at %d ranks, want < 32 MB", lib.Engine, mb, c.Ranks())
		}
	}
}

// allToAll is the sorting programs' interleaved exchange with nothing in
// the messages: in round k, chunks sends to me+k alternate with chunks
// receives from me-k.
type allToAll struct {
	me, procs, chunks int
	round, step       int
}

func (a *allToAll) reset(me int) { a.me, a.round, a.step = me, 1, 0 }

func (a *allToAll) messages() int { return (a.procs - 1) * a.chunks }

func (a *allToAll) Next(_ *machine.Proc, st *Step) bool {
	if a.step == 2*a.chunks {
		a.round, a.step = a.round+1, 0
	}
	if a.round >= a.procs {
		return false
	}
	if a.step%2 == 0 {
		*st = Step{Peer: (a.me + a.round) % a.procs, Tag: a.step, Bytes: 256}
	} else {
		*st = Step{Recv: true, Peer: (a.me - a.round + a.procs) % a.procs}
	}
	a.step++
	return true
}

func (a *allToAll) Deliver(*machine.Proc, *Message) {}

// exchangeRun makes a function that runs phases all-to-all exchanges in
// one Machine.Run.
func exchangeRun(c *Comm, chunks int) (run func(phases int), messages int) {
	progs := make([]allToAll, c.Ranks())
	for i := range progs {
		progs[i] = allToAll{procs: c.Ranks(), chunks: chunks}
	}
	body := func(phases int) func(p *machine.Proc) {
		return func(p *machine.Proc) {
			for i := 0; i < phases; i++ {
				progs[p.ID].reset(p.ID)
				c.Run(p, &progs[p.ID])
			}
		}
	}
	return func(phases int) { c.Machine().Run(body(phases)) }, c.Ranks() * progs[0].messages()
}

// TestExchangeAllocatesNothingPerMessage: once the pairs' windows exist,
// a run's allocations do not depend on how many messages it moves.
func TestExchangeAllocatesNothingPerMessage(t *testing.T) {
	for _, lib := range []Config{DefaultDirect(), DefaultStaged()} {
		c := comm(t, 8, lib)
		run, messages := exchangeRun(c, 20)
		if messages < 1000 {
			t.Fatalf("only %d messages a phase", messages)
		}
		run(1) // warm: rows and rings
		idle := testing.AllocsPerRun(5, func() { run(0) })
		busy := testing.AllocsPerRun(5, func() { run(3) })
		if busy > idle {
			t.Errorf("%v: %.0f allocations with %d messages, %.0f with none", lib.Engine, busy, 3*messages, idle)
		}
	}
}
