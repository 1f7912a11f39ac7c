package machine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// episode names the collective a processor arrives at the gate for.
type episode string

const (
	atBarrier    episode = "barrier"
	atRendezvous episode = "rendezvous"
	atShare      episode = "shared step"
)

// gate is the machine's one meeting point. Every barrier, rendezvous and
// shared value is one episode of it: each processor arrives and parks,
// and the last to arrive runs the episode's closure while the others stay
// parked, then releases them all. The closure's result is a deterministic
// function of what the processors brought, so the host's arrival order
// never shows in a simulated result.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members int

	waiting int
	kind    episode // the episode in progress, as its first arrival named it
	first   int     // that arrival's processor
	phase   string  // and its phase label
	latest  float64 // the latest virtual clock parked in it
	gen     uint64

	// returned marks the members whose bodies have returned, and left
	// counts them: an episode they have not joined can never complete.
	returned []bool
	left     int
	// stranded is the failure of a run whose parked members waited for
	// members that had returned.
	stranded *StrandedError

	// release and value are the results of the episode that most recently
	// completed: a barrier's release time and a shared value. Neither can
	// be overwritten before every member has read it, because overwriting
	// requires all members to arrive at the next episode, and a member
	// still reading has not. shares counts the run's shared values.
	release float64
	value   any
	shares  int

	// aborted wakes the waiters of a run in which some member panicked;
	// they unwind instead of waiting for an arrival that cannot come.
	// abortCh is closed with it, for processors parked on a channel of
	// their own (Machine.Aborted).
	aborted bool
	abortCh chan struct{}
	// admit, when a test sets it, says whether member id may arrive now
	// that arrived members are waiting; a refused member yields and asks
	// again, which lets a test force any arrival order.
	admit func(id, arrived int) bool
}

func newGate(members int) *gate {
	g := &gate{members: members, abortCh: make(chan struct{}), returned: make([]bool, members)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// reset clears the state of a finished run. It must not be called while
// any member is waiting.
func (g *gate) reset() {
	g.waiting, g.release, g.value, g.shares = 0, 0, nil, 0
	clear(g.returned)
	g.left, g.stranded = 0, nil
	if g.aborted {
		g.aborted, g.abortCh = false, make(chan struct{})
	}
}

// abort releases every current and future waiter, which unwind by
// panicking with runAborted.
func (g *gate) abort() {
	g.mu.Lock()
	g.abortLocked()
	g.mu.Unlock()
}

func (g *gate) abortLocked() {
	if !g.aborted {
		g.aborted = true
		close(g.abortCh)
	}
	g.cond.Broadcast()
}

// leave records that member id's body returned.
func (g *gate) leave(id int) {
	g.mu.Lock()
	g.returned[id] = true
	g.left++
	g.strandIfStuck()
	g.mu.Unlock()
}

// strandIfStuck aborts the run when the members parked in the episode in
// progress can never be released, because every other member's body has
// returned, and records who waited for whom. Called with mu held.
func (g *gate) strandIfStuck() {
	if g.waiting == 0 || g.waiting+g.left < g.members || g.aborted {
		return
	}
	e := &StrandedError{Kind: string(g.kind), Phase: g.phase}
	for id, done := range g.returned {
		if done {
			e.Returned = append(e.Returned, id)
		} else {
			e.Parked = append(e.Parked, id)
		}
	}
	g.stranded = e
	g.abortLocked()
}

// StrandedError is what Run panics with when processors wait at a
// barrier, rendezvous or shared step that the other processors' bodies
// returned without reaching.
type StrandedError struct {
	// Parked lists the waiting processors and Returned the ones whose
	// bodies had returned, both in ID order.
	Parked, Returned []int
	// Kind is the episode they wait at ("barrier", "rendezvous", "shared
	// step"), and Phase the phase label of its first arrival.
	Kind, Phase string
}

func (e *StrandedError) Error() string {
	return fmt.Sprintf("machine: processors %v wait at a %s in phase %q that processors %v returned without reaching",
		e.Parked, e.Kind, e.Phase, e.Returned)
}

// runAborted is the panic value that unwinds a processor parked at a
// meeting point of a run another processor's panic has aborted; Run does
// not report it.
type runAborted struct{}

// Aborted returns a channel that is closed once a processor body of the
// current Run has panicked. A primitive outside this package that parks
// a processor on a channel of its own (ccsas.Flag) selects on this one
// too and calls Unwind when it fires, so its waiters leave an aborted
// run the way gate waiters do.
func (m *Machine) Aborted() <-chan struct{} { return m.gate.abortCh }

// Unwind abandons the calling processor's body in an aborted run.
func (p *Proc) Unwind() { panic(runAborted{}) }

// meet parks p, arriving for an episode of the given kind, until all
// members have arrived. The last to arrive runs last while the others
// stay parked and the lock is free; if last panics, Run aborts the parked
// members. A member arriving for another kind than the episode in
// progress panics: it and the members already parked are in different
// collectives, and no closure can serve both.
func (g *gate) meet(p *Proc, kind episode, last func()) {
	id := p.ID
	g.mu.Lock()
	for g.admit != nil && !g.aborted && !g.admit(id, g.waiting) {
		g.mu.Unlock()
		runtime.Gosched()
		g.mu.Lock()
	}
	if g.aborted {
		g.mu.Unlock()
		panic(runAborted{})
	}
	if g.waiting == 0 {
		g.kind, g.first, g.phase, g.latest = kind, id, p.phase, 0
	} else if kind != g.kind {
		err := fmt.Errorf("machine: processor %d arrived at a %s while processor %d waits at a %s",
			id, kind, g.first, g.kind)
		g.mu.Unlock()
		panic(err)
	}
	myGen := g.gen
	g.latest = max(g.latest, p.clock)
	if g.waiting++; g.waiting == g.members {
		// Nobody can arrive or leave until gen moves, so the state
		// survives the unlocked call.
		g.mu.Unlock()
		last()
		g.mu.Lock()
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
	} else {
		g.strandIfStuck()
		for myGen == g.gen && !g.aborted {
			g.cond.Wait()
		}
		if myGen == g.gen {
			g.mu.Unlock()
			panic(runAborted{})
		}
	}
	g.mu.Unlock()
}

// Barrier blocks p until every processor has arrived, then releases all
// of them at the same virtual time (the latest arrival + barrier cost),
// charging each processor's wait to SYNC.
func (m *Machine) Barrier(p *Proc) {
	arrival := p.clock
	m.gate.meet(p, atBarrier, func() { m.gate.release = m.gate.latest + m.cfg.BarrierCost(len(m.procs)) })
	rel := m.gate.release
	p.WaitUntil(rel)
	if p.tr != nil {
		p.tr.Emit(trace.EvBarrier, arrival, rel-arrival, -1, 0)
	}
}

// Rendezvous is a host-only meeting point: no virtual time passes and no
// trace event is recorded. It parks p until every processor of the
// machine has called it; the last to arrive then runs last on its own
// goroutine while all the others are parked — so last, and only last,
// may drive any processor's Proc (DESIGN.md §5) — and when it returns
// every processor continues. What the others wrote before calling is
// visible to last, and what last wrote is visible to them afterwards.
func (m *Machine) Rendezvous(p *Proc, last func()) {
	m.gate.meet(p, atRendezvous, last)
}

// Share returns the value build computes once for every processor of the
// machine, and the ordinal of that shared step within the run. Like
// Rendezvous it is host-only and parks p until every processor has
// called it; the last to arrive runs its own build and all of them return
// the one value. So build must compute what every processor's build would
// (replicated work over inputs a collective delivered to all alike), must
// not touch any Proc, and the value it returns is read by all processors
// at once and must not change afterwards.
func Share[T any](p *Proc, build func() T) (T, int) {
	g := p.m.gate
	g.meet(p, atShare, func() {
		g.value = build()
		g.shares++
	})
	return g.value.(T), g.shares - 1
}

// SetArrivalOrderForTest makes every episode of the machine's gate —
// barrier, rendezvous, shared step — admit processors in the order admit
// dictates: processor proc, asking while arrived others are parked,
// yields until admit says yes. nil removes the hook. Not safe to call
// while a run is in flight.
func (m *Machine) SetArrivalOrderForTest(admit func(proc, arrived int) bool) {
	m.gate.admit = admit
}
