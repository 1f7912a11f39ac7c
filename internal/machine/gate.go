package machine

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// episode says where a processor is: running, parked at one of the
// gate's collectives or at a mailbox, or returned. A byte, not a string,
// so parking writes and compares no pointers; with a string, a
// 256-processor barrier ran ≈ 50 % slower on the host.
type episode uint8

const (
	running episode = iota
	atBarrier
	atRendezvous
	atShare
	atTake
	atPut
	returned
)

func (e episode) String() string {
	return [...]string{"", "barrier", "rendezvous", "shared step", "flag", "flag (full)", "returned"}[e]
}

// gate is the machine's one parking place. Every barrier, rendezvous and
// shared value is one episode of it: each processor arrives and parks,
// and the last to arrive runs the episode's closure while the others stay
// parked, then releases them all. The closure's result is a deterministic
// function of what the processors brought, so the host's arrival order
// never shows in a simulated result. A Mailbox parks a processor in it
// too, until its peer puts or takes.
type gate struct {
	mu sync.Mutex
	// at says where each member is. Whoever makes a parked member runnable
	// sets at[id] to running under mu before unlocking, so a member is
	// never counted as parked once released; parked and left count the
	// parked and returned ones. A member parked at a collective waits on
	// all, which its last arrival broadcasts, and one parked at a mailbox
	// on own[id], which its peer signals.
	at           []episode
	all          sync.Cond
	own          []sync.Cond
	procs        []*Proc
	parked, left int
	// runs counts finished runs; a mailbox last used in an earlier one
	// starts empty.
	runs uint64

	waiting int     // arrivals at the episode in progress
	kind    episode // its kind, as its first arrival named it
	first   int     // that arrival's processor
	latest  int64   // the latest virtual clock parked in it, ps

	// release and value are the results of the episode that most recently
	// completed: a barrier's release time and a shared value. Neither can
	// be overwritten before every member has read it, because overwriting
	// requires all members to arrive at the next episode, and a member
	// still reading has not. shares counts the run's shared values.
	release int64
	value   any
	shares  int

	// cause is why the run aborted, nil while it has not: a member's
	// failure, or a *StrandedError when its parked members no running
	// member can release. Every parked member wakes and unwinds instead of
	// waiting for a release that cannot come. Whatever else ends a run
	// early records its cause here.
	cause error
	// admit, when a test sets it, says whether member id may arrive now
	// that arrived members are waiting; a refused member yields and asks
	// again, which lets a test force any arrival order.
	admit func(id, arrived int) bool
}

func newGate(procs []*Proc) *gate {
	g := &gate{procs: procs, at: make([]episode, len(procs)), own: make([]sync.Cond, len(procs))}
	g.all.L = &g.mu
	for i := range g.own {
		g.own[i].L = &g.mu
	}
	return g
}

// reset clears the state of a finished run. It must not be called while
// any member is parked.
func (g *gate) reset() {
	clear(g.at)
	g.parked, g.left, g.waiting, g.runs = 0, 0, 0, g.runs+1
	g.release, g.value, g.shares, g.cause = 0, nil, 0, nil
}

// abort records cause unless the run has already aborted, and wakes
// every parked member; they and every member that parks later unwind by
// panicking with runAborted. Called with mu held.
func (g *gate) abort(cause error) {
	g.cause = cmp.Or(g.cause, cause)
	g.all.Broadcast()
	for i := range g.own {
		g.own[i].Signal()
	}
}

// leave records that member id's body returned.
func (g *gate) leave(id int) {
	g.mu.Lock()
	g.at[id] = returned
	g.left++
	g.strandIfStuck()
	g.mu.Unlock()
}

// lock takes mu, or unwinds the caller if the run has aborted.
func (g *gate) lock() {
	g.mu.Lock()
	if g.cause != nil {
		g.mu.Unlock()
		panic(runAborted{})
	}
}

// park parks member id at the place named at, waiting on c, until another
// member sets at[id] to running, and unwinds it if the run aborts first.
// Called with mu held in a run not aborted; returns with it released.
func (g *gate) park(id int, at episode, c *sync.Cond) {
	g.at[id] = at
	g.parked++
	g.strandIfStuck()
	for g.at[id] == at && g.cause == nil {
		c.Wait()
	}
	released := g.at[id] == running
	g.mu.Unlock()
	if !released {
		panic(runAborted{})
	}
}

// strandIfStuck aborts the run when some members are parked and every
// other member's body has returned, so nobody can ever release them, and
// records where each waited. Called with mu held.
func (g *gate) strandIfStuck() {
	if g.parked == 0 || g.parked+g.left < len(g.at) || g.cause != nil {
		return
	}
	e := &StrandedError{}
	for id, at := range g.at {
		if at == returned {
			e.Returned = append(e.Returned, id)
		} else {
			e.Parked = append(e.Parked, Parked{Proc: id, At: at.String(), Phase: g.procs[id].phase})
		}
	}
	g.abort(e)
}

// StrandedError is what Run returns when processors are parked where
// no processor can ever release them: at a barrier, rendezvous, shared
// step or flag that the others returned without reaching, in a cycle of
// flags, or, in an MPI phase, at sends and receives no rank can enable.
type StrandedError struct {
	// Parked lists the stuck processors and Returned the ones whose
	// bodies had returned, both in ID order.
	Parked   []Parked
	Returned []int
}

// Parked is one stuck processor: where it waits ("barrier", "flag",
// "recv←3", ...) and its phase label at the time.
type Parked struct {
	Proc      int
	At, Phase string
}

func (e *StrandedError) Error() string {
	s := "machine: stranded:"
	for _, q := range e.Parked {
		s += fmt.Sprintf(" processor %d at %s in phase %q;", q.Proc, q.At, q.Phase)
	}
	return fmt.Sprintf("%s processors %v returned", s, e.Returned)
}

// runAborted is the panic value that unwinds a processor parked in a run
// that has aborted; Run reports the abort's cause instead.
type runAborted struct{}

// meet parks p, arriving for an episode of the given kind, until all
// members have arrived. The last to arrive runs last while the others
// stay parked and the lock is free; if last panics, Run aborts the parked
// members. A member arriving for another kind than the episode in
// progress panics: it and the members already parked are in different
// collectives, and no closure can serve both.
func (g *gate) meet(p *Proc, kind episode, last func()) {
	id := p.ID
	g.lock()
	for g.admit != nil && !g.admit(id, g.waiting) {
		g.mu.Unlock()
		runtime.Gosched()
		g.lock()
	}
	if g.waiting == 0 {
		g.kind, g.first, g.latest = kind, id, 0
	} else if kind != g.kind {
		err := fmt.Errorf("machine: processor %d arrived at a %s while processor %d waits at a %s",
			id, kind, g.first, g.kind)
		g.mu.Unlock()
		panic(err)
	}
	g.latest = max(g.latest, p.clock)
	if g.waiting++; g.waiting < len(g.at) {
		g.park(id, kind, &g.all)
		return
	}
	// Every other member is parked here until released, so the state
	// survives the unlocked call.
	g.mu.Unlock()
	last()
	g.mu.Lock()
	// Every member is here, so releasing them leaves all running.
	clear(g.at)
	g.parked -= g.waiting - 1
	g.waiting = 0
	g.all.Broadcast()
	g.mu.Unlock()
}

// Mailbox is a one-value slot between two processors that parks them in
// the machine's gate: Take waits while it is empty and Put while it is
// full, so a processor parked at one is released, unwound or reported
// stranded like one parked at a barrier (at "flag" or "flag (full)").
// Its zero value is an empty mailbox; each run starts with it empty.
type Mailbox struct {
	t    float64
	full bool
	// waiter[1] is parked in Put, waiter[0] in Take.
	waiter [2]*Proc
	run    uint64
}

// Put fills the slot with t, first waiting for it to be taken if full.
func (b *Mailbox) Put(p *Proc, t float64) { b.pass(p, true, t) }

// Take empties the slot and returns its value, first waiting for it to
// be filled if empty.
func (b *Mailbox) Take(p *Proc) float64 { return b.pass(p, false, 0) }

// pass waits until the slot can be filled (put) or emptied, does so, and
// releases the processor waiting to do the opposite.
func (b *Mailbox) pass(p *Proc, put bool, t float64) float64 {
	g := p.m.gate
	g.lock()
	if b.run != g.runs {
		*b = Mailbox{run: g.runs}
	}
	at, me := atTake, 0
	if put {
		at, me = atPut, 1
	}
	for b.full == put {
		b.waiter[me] = p
		g.park(p.ID, at, &g.own[p.ID])
		g.lock()
	}
	// A swap: Put leaves its t in the slot, Take gets it out.
	b.t, t, b.full = t, b.t, put
	if q := b.waiter[1-me]; q != nil {
		b.waiter[1-me] = nil
		g.at[q.ID] = running
		g.parked--
		g.own[q.ID].Signal()
	}
	g.mu.Unlock()
	return t
}

// Barrier blocks p until every processor has arrived, then releases all
// of them at the same virtual time (the latest arrival + barrier cost),
// charging each processor's wait to SYNC.
func (m *Machine) Barrier(p *Proc) {
	arrival := p.clock
	m.gate.meet(p, atBarrier, func() { m.gate.release = m.gate.latest + psOf(m.cfg.BarrierCost(len(m.procs))) })
	rel := m.gate.release
	p.waitUntil(rel)
	if p.tr != nil {
		p.tr.Emit(trace.EvBarrier, nsOf(arrival), nsOf(rel-arrival), -1, 0)
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
