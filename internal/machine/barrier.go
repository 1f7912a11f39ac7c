package machine

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// Barrier is a reusable virtual-time barrier: all members block until the
// last arrives, then every member's clock advances to the maximum arrival
// time plus the barrier cost, with the wait charged to SYNC.
//
// The release time is a deterministic function of the members' arrival
// clocks, so barriers keep the whole simulation deterministic no matter
// how the host schedules the goroutines.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members int
	cost    float64

	waiting  int
	maxClock float64
	gen      uint64
	// release is the release time of the generation that most recently
	// completed. It cannot be overwritten before every member of that
	// generation has read it, because overwriting requires all members to
	// arrive at the next episode, and a member still reading has not.
	release float64
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

// NewBarrier builds a barrier for the given member count and per-episode
// cost in nanoseconds.
func NewBarrier(members int, cost float64) *Barrier {
	b := &Barrier{members: members, cost: cost, abortCh: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Members returns the number of participants.
func (b *Barrier) Members() int { return b.members }

// Reset clears arrival state between independent runs. It must not be
// called while any member is waiting.
func (b *Barrier) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting = 0
	b.maxClock = 0
	b.release = 0
	if b.aborted {
		b.aborted, b.abortCh = false, make(chan struct{})
	}
}

// abort releases every current and future waiter, which unwind by
// panicking with runAborted.
func (b *Barrier) abort() {
	b.mu.Lock()
	if !b.aborted {
		b.aborted = true
		close(b.abortCh)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// runAborted is the panic value that unwinds a processor parked at a
// meeting point of a run another processor's panic has aborted; Run does
// not report it.
type runAborted struct{}

// Aborted returns a channel that is closed once a processor body of the
// current Run has panicked. A primitive outside this package that parks
// a processor on a channel of its own (ccsas.Flag) selects on this one
// too and calls Unwind when it fires, so its waiters leave an aborted
// run the way Barrier and Rendezvous waiters do.
func (m *Machine) Aborted() <-chan struct{} { return m.barrier.abortCh }

// Unwind abandons the calling processor's body in an aborted run.
func (p *Proc) Unwind() { panic(runAborted{}) }

// meet parks member id, arriving at virtual time clock, until all
// members have arrived and returns the common release time. The last
// member to arrive first runs last, if not nil, while the others stay
// parked and the lock is free.
func (b *Barrier) meet(id int, clock float64, last func()) float64 {
	b.mu.Lock()
	for b.admit != nil && !b.aborted && !b.admit(id, b.waiting) {
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	if b.aborted {
		b.mu.Unlock()
		panic(runAborted{})
	}
	myGen := b.gen
	if clock > b.maxClock {
		b.maxClock = clock
	}
	b.waiting++
	if b.waiting == b.members {
		if last != nil {
			// Nobody can arrive or leave until gen moves, so the state
			// survives the unlocked call; if it panics, Run aborts the
			// parked members.
			b.mu.Unlock()
			last()
			b.mu.Lock()
		}
		b.release = b.maxClock + b.cost
		b.waiting = 0
		b.maxClock = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for myGen == b.gen && !b.aborted {
			b.cond.Wait()
		}
		if myGen == b.gen {
			b.mu.Unlock()
			panic(runAborted{})
		}
	}
	rel := b.release
	b.mu.Unlock()
	return rel
}

// Wait blocks p until all members arrive and then advances p's clock to
// the common release time.
func (b *Barrier) Wait(p *Proc) {
	arrival := p.clock
	rel := b.meet(p.ID, arrival, nil)
	p.WaitUntil(rel)
	if p.tr != nil {
		p.tr.Emit(trace.EvBarrier, arrival, rel-arrival, -1, 0)
	}
}
