package sorts

import (
	"repro/internal/machine"
	"repro/internal/mpi"
)

// mpiBackend is the message-passing model: every array is private to its
// process (allocated in the shared-underneath address space, as the
// paper's impure implementation requires), small vectors travel by
// MPI_Allgather or point-to-point through rank 0, and keys move in
// send/receive pairs. Config.MPI picks the library: the authors'
// direct-copy NEW or the vendor-style staged SGI.
type mpiBackend struct {
	// oneMsg selects the NAS-IS-style radix exchange: one message per
	// destination carrying all its chunks, reorganized into place by the
	// receiver. The paper measured both and found per-chunk messages
	// faster on the Origin2000; this variant exists for that ablation.
	oneMsg bool

	m  *machine.Machine
	c  *mpi.Comm
	st *store
	// parts is radix sort's blocked destination layout.
	parts []int64
	// moves[r] queues the host copies of the runs rank r's receives
	// placed in an exchange, done by r itself once the replay is over
	// (moveKeys). Each rank's slice is reused from exchange to exchange.
	moves [][]keyMove
}

// keyMove is one received run's host copy: count keys from offset
// srcOff of rank src's send buffer to offset dstOff of the receiver's.
type keyMove struct{ src, srcOff, dstOff, count int }

func (b *mpiBackend) model() string {
	model := "mpi-" + b.c.Config().Engine.String()
	if b.oneMsg {
		model += "-onemsg"
	}
	return model
}

// received: a receive leaves the keys in this process's own memory.
func (b *mpiBackend) received() machine.Sharing { return machine.Private }

func (b *mpiBackend) alloc(m *machine.Machine, cfg Config, alg algorithm, n, _ int) *store {
	P := m.Procs()
	b.m, b.c = m, mpi.New(m, cfg.MPI)
	b.moves = make([][]keyMove, P)
	st := &store{keys: newPartitioned(P), tmp: newPartitioned(P), hist: make([]*machine.Array[int32], P)}
	b.st = st
	if alg == algRadix {
		b.parts = blockedParts(n, P)
		st.buf = newPartitioned(P)
	} else {
		st.recv, st.out = newPartitioned(P), newPartitioned(P)
	}
	for i := 0; i < P; i++ {
		st.keys.part[i] = onProc(m, "mpi.keys", n, i)
		st.tmp.part[i] = onProc(m, "mpi.tmp", n, i)
		if alg == algRadix {
			st.buf.part[i] = onProc(m, "mpi.buf", n, i)
		} else {
			st.recv.part[i] = reserved(m, "mpi.recv", n, i)
			st.out.part[i] = reserved(m, "mpi.out", n, i)
		}
		st.hist[i] = machine.NewArrayOnProc[int32](m, "mpi.hist", cfg.Buckets(), i)
	}
	return st
}

// histograms allgathers the counts. Every process then holds every row
// and, in the simulated program, computes the plan redundantly (the
// caller charges each for it); the host builds it once.
func (b *mpiBackend) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	return sharedPlan(p, mpi.Allgather(b.c, p, counts), b.parts)
}

func (b *mpiBackend) permuteTarget(p *machine.Proc, plan *chunkPlan, _ *partitioned) target {
	return bufferTarget(b.st, plan, p.ID)
}

// splitters allgathers the samples; every process then computes the
// splitters redundantly, with no process groups — each is charged the
// merge of the pool, which the host sorts once.
func (b *mpiBackend) splitters(p *machine.Proc, samples []uint32) []uint32 {
	P := b.m.Procs()
	rows := mpi.Allgather(b.c, p, samples)
	return splittersOf(p, P, func() []uint32 {
		all := make([]uint32, 0, P*len(samples))
		for _, g := range rows {
			all = append(all, g...)
		}
		return all
	})
}

func (b *mpiBackend) publishSamples(*machine.Proc, []uint32) {}

// pivots is PSRS's explicit gather/broadcast through rank 0: 2(P-1)
// point-to-point messages serialized at the root.
func (b *mpiBackend) pivots(p *machine.Proc, samples []uint32) []uint32 {
	P := b.m.Procs()
	if p.ID != 0 {
		return b.c.SendRecv(p, 0, 0, samples, 4*len(samples), 0, 0, 0).Payload.([]uint32)
	}
	root := &pivotRoot{procs: P, pool: append(make([]uint32, 0, P*P), samples...)}
	b.c.Run(p, root)
	return root.pivots
}

// pivotRoot is rank 0's program of the pivot step: a receive from every
// other rank in rank order, the selection, a send to every other rank.
type pivotRoot struct {
	procs  int
	pool   []uint32
	pivots []uint32
	// done counts the steps taken.
	done int
}

func (r *pivotRoot) Next(p *machine.Proc, st *mpi.Step) bool {
	others := r.procs - 1
	switch {
	case r.done < others:
		*st = mpi.Step{Recv: true, Peer: r.done + 1}
	case r.done < 2*others:
		if r.done == others {
			r.pivots = pivotsOf(p, r.pool, r.procs)
		}
		*st = mpi.Step{Peer: r.done - others + 1, Tag: 1, Payload: r.pivots, Bytes: 4 * len(r.pivots)}
	default:
		return false
	}
	r.done++
	return true
}

func (r *pivotRoot) Deliver(_ *machine.Proc, msg *mpi.Message) {
	r.pool = append(r.pool, msg.Payload.([]uint32)...)
}

// routes allgathers the per-destination counts when the plan must be
// placed. Otherwise nothing is exchanged at all: each process knows what
// it sends, and sizes its receive buffer from the message lengths.
func (b *mpiBackend) routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan {
	if placed {
		return sharedPlan(p, mpi.Allgather(b.c, p, psrsDestCounts(p, bnd)), nil)
	}
	rows := make([][]int64, b.m.Procs())
	rows[p.ID] = bnd
	return &chunkPlan{buckets: len(rows), bufPos: rows}
}

// exchange keeps local keys local and moves the rest in an interleaved
// all-to-all: in round k, send to me+k and receive from me-k,
// alternating one-for-one so the shallow per-pair windows cannot
// deadlock. Each contiguously-destined run is its own message, which the
// receiver places directly.
func (b *mpiBackend) exchange(p *machine.Proc, plan *chunkPlan, from, to *partitioned, x xfer) int {
	me, P := p.ID, b.m.Procs()
	rcv := newReceiver(plan, to.part[me], me)
	label(p, x.transfer)
	plan.each(me, me, func(ch chunk) {
		copyRun(p, from.part[me], ch.srcOff, rcv.dst, rcv.place(ch), ch.count, machine.Private, machine.Private)
	})
	p.SetContention(p.ContentionFactor(P))
	rounds := exchangeRounds{plan: plan, from: from, rcv: rcv, moves: &b.moves[me], tag: x.tag, me: me, procs: P}
	if b.oneMsg {
		b.c.Run(p, &destExchange{exchangeRounds: rounds})
	} else {
		b.c.Run(p, &chunkExchange{exchangeRounds: rounds})
	}
	p.SetContention(1)
	b.moveKeys(p, from, to)
	return rcv.held
}

// moveKeys does the host copies of the runs rank p's receives placed,
// which Deliver queued during the replay, on p's own goroutine and so in
// parallel with the other ranks'. Then it waits for every rank to finish
// its own: only after that may a rank overwrite a send buffer that
// another is still copying from.
func (b *mpiBackend) moveKeys(p *machine.Proc, from, to *partitioned) {
	me := p.ID
	dst := to.part[me].arr.Data
	for _, mv := range b.moves[me] {
		copy(dst[mv.dstOff:mv.dstOff+mv.count], from.part[mv.src].arr.Data[mv.srcOff:mv.srcOff+mv.count])
	}
	b.moves[me] = b.moves[me][:0]
	b.m.Rendezvous(p, func() {})
}

// exchangeRounds is what both forms of the all-to-all share: one rank's
// position in the rounds. A message carries no keys. Its payload is the
// sender's plan, from which the receiver enumerates the runs the message
// stands for, charges their placement and queues their copies out of the
// sender's buffer, which the phase only reads, on moves.
type exchangeRounds struct {
	plan      *chunkPlan
	from      *partitioned
	rcv       *receiver
	moves     *[]keyMove
	tag       int
	me, procs int

	// round is k; dst and peer are its partners.
	round, dst, peer int
}

// nextRound moves to the next round, or reports that there is none.
func (e *exchangeRounds) nextRound() bool {
	if e.round++; e.round >= e.procs {
		return false
	}
	e.dst, e.peer = (e.me+e.round)%e.procs, (e.me-e.round+e.procs)%e.procs
	return true
}

func (e *exchangeRounds) send(st *mpi.Step, bytes int) {
	*st = mpi.Step{Peer: e.dst, Tag: e.tag, Payload: e.plan, Bytes: bytes}
}

// chunkExchange is the paper's exchange: the k-th message of a pair is
// the pair's k-th run.
type chunkExchange struct {
	exchangeRounds
	// out and in enumerate the round's runs to send and — under a blocked
	// plan, where a pair has as many messages as runs — to receive;
	// outRun and inRun are the next of each while haveOut and haveIn, and
	// sendNext says whose turn it is while both remain.
	out, in         chunkCursor
	outRun, inRun   chunk
	haveOut, haveIn bool
	sendNext        bool
}

func (e *chunkExchange) Next(p *machine.Proc, st *mpi.Step) bool {
	for !e.haveOut && !e.haveIn {
		if !e.nextRound() {
			return false
		}
		e.sendNext = true
		e.out = e.plan.cursor(e.me, e.dst)
		e.outRun, e.haveOut = e.out.next()
		if e.plan.parts != nil {
			e.in = e.plan.cursor(e.peer, e.me)
			e.inRun, e.haveIn = e.in.next()
		} else {
			// A splitter-directed exchange is exactly one message per
			// process pair, sent even when empty: nobody need know how
			// many messages to expect.
			e.haveOut, e.haveIn = true, true
		}
	}
	if !e.haveIn || e.sendNext && e.haveOut {
		e.sendNext = false
		ch, src := e.outRun, e.from.part[e.me].arr
		e.outRun, e.haveOut = e.out.next()
		if ch.count > 0 {
			src.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
		}
		e.send(st, src.Bytes(ch.count))
	} else {
		e.sendNext = true
		*st = mpi.Step{Recv: true, Peer: e.peer}
	}
	return true
}

func (e *chunkExchange) Deliver(p *machine.Proc, msg *mpi.Message) {
	ch := e.inRun
	if e.plan.parts != nil {
		e.inRun, e.haveIn = e.in.next()
	} else {
		// Only the sender need know how long its run is.
		in := msg.Payload.(*chunkPlan).cursor(msg.Src, e.me)
		ch, _ = in.next()
		e.haveIn = false
	}
	to := e.rcv.dst.arr
	off := e.rcv.place(ch)
	if ch.count > 0 {
		*e.moves = append(*e.moves, keyMove{msg.Src, ch.srcOff, off, ch.count})
	}
	p.InvalidateRange(to.Addr(off), to.Bytes(ch.count))
	p.Compute(8) // placement bookkeeping
}

// stagingNsPerByte prices the extra memory-speed pass the one-message
// variant takes over its payload at each end (gather into the staging
// buffer, stream back out of the arrival buffer).
const stagingNsPerByte = 1.0

// destExchange is the NAS-IS-style exchange: every chunk for one
// destination in a single message; the receiver places each run.
type destExchange struct {
	exchangeRounds
	// sent says the round's message is out and its receive comes next.
	sent bool
}

// Next is one round a pair of calls: the sender gathers the destination's
// chunks into one contiguous buffer (an extra local copy), then receives.
func (e *destExchange) Next(p *machine.Proc, st *mpi.Step) bool {
	if e.sent {
		e.sent = false
		*st = mpi.Step{Recv: true, Peer: e.peer}
		return true
	}
	if !e.nextRound() {
		return false
	}
	e.sent = true
	src, keys := e.from.part[e.me].arr, 0
	e.plan.each(e.me, e.dst, func(ch chunk) {
		src.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
		p.Compute(ch.count) // the gather copy's ALU work
		keys += ch.count
	})
	// The gather writes a staging buffer the wire reads back: one
	// memory-speed pass over the payload.
	p.LocalMemNs(float64(4*keys) * stagingNsPerByte)
	e.send(st, 4*keys)
	return true
}

// Deliver reorganizes the arriving runs into their final positions
// (extra local stores).
func (e *destExchange) Deliver(p *machine.Proc, msg *mpi.Message) {
	// Stream the arrived (uncached) payload back in before scattering.
	p.LocalMemNs(float64(msg.Bytes) * stagingNsPerByte)
	to := e.rcv.dst.arr
	msg.Payload.(*chunkPlan).each(msg.Src, e.me, func(ch chunk) {
		*e.moves = append(*e.moves, keyMove{msg.Src, ch.srcOff, ch.dstOff, ch.count})
		p.InvalidateRange(to.Addr(ch.dstOff), to.Bytes(ch.count))
		to.StoreRange(p, ch.dstOff, ch.dstOff+ch.count, machine.Private)
		p.Compute(ch.count + 8) // reorganization copy
	})
}
