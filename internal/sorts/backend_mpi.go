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

	m    *machine.Machine
	c    *mpi.Comm
	st   *store
	memo *runMemo
	// parts is radix sort's blocked destination layout.
	parts []int64
}

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
	b.m, b.c, b.memo = m, mpi.New(m, cfg.MPI), newRunMemo(m)
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
	return b.memo.plan(p, mpi.Allgather(b.c, p, counts), b.parts)
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
	return splittersOf(p, b.memo, P, func() []uint32 {
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
		b.c.Send(p, 0, 0, samples, 4*len(samples))
		return b.c.Recv(p, 0, 0, 0).Payload.([]uint32)
	}
	pool := append(make([]uint32, 0, P*P), samples...)
	for q := 1; q < P; q++ {
		pool = append(pool, b.c.Recv(p, q, 0, 0).Payload.([]uint32)...)
	}
	pivots := pivotsOf(p, pool, P)
	for q := 1; q < P; q++ {
		b.c.Send(p, q, 1, pivots, 4*len(pivots))
	}
	return pivots
}

// routes allgathers the per-destination counts when the plan must be
// placed. Otherwise nothing is exchanged at all: each process knows what
// it sends, and sizes its receive buffer from the message lengths.
func (b *mpiBackend) routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan {
	if placed {
		return b.memo.plan(p, mpi.Allgather(b.c, p, psrsDestCounts(p, bnd)), nil)
	}
	rows := make([][]int64, b.m.Procs())
	rows[p.ID] = bnd
	return &chunkPlan{buckets: len(rows), bufPos: rows}
}

// chunkMsg is the payload of one exchange message: a contiguous run of
// keys plus its offset within the receiver's partition.
type chunkMsg struct {
	dstOff int
	data   []uint32
}

// exchange keeps local keys local and moves the rest in an interleaved
// all-to-all: in round k, send to me+k and receive from me-k,
// alternating one-for-one so the shallow per-pair windows cannot
// deadlock. Each contiguously-destined run is its own message, which the
// receiver places directly.
func (b *mpiBackend) exchange(p *machine.Proc, plan *chunkPlan, from, to *partitioned, x xfer) int {
	me, P := p.ID, b.m.Procs()
	src := from.part[me]
	rcv := newReceiver(plan, to.part[me], me)
	label(p, x.transfer)
	plan.each(me, me, func(ch chunk) {
		copyRun(p, src, ch.srcOff, rcv.dst, rcv.place(ch), ch.count, machine.Private, machine.Private)
	})
	p.SetContention(p.ContentionFactor(P, false))
	var sends []chunk
	for k := 1; k < P; k++ {
		dst, peer := (me+k)%P, (me-k+P)%P
		sends = sends[:0]
		plan.each(me, dst, func(ch chunk) { sends = append(sends, ch) })
		if b.oneMsg {
			b.sendRecvOneMsg(p, sends, src, rcv.dst.arr, dst, peer, x.tag)
			continue
		}
		recvs := 1
		if plan.parts != nil {
			recvs = plan.count(peer, me)
		} else if len(sends) == 0 {
			// A splitter-directed exchange is exactly one message per
			// process pair, sent even when empty: nobody need know how
			// many messages to expect.
			sends = append(sends, chunk{})
		}
		for si, ri := 0, 0; si < len(sends) || ri < recvs; {
			if si < len(sends) {
				ch := sends[si]
				si++
				data := make([]uint32, ch.count)
				if ch.count > 0 {
					src.arr.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
					copy(data, src.arr.Data[ch.srcOff:ch.srcOff+ch.count])
				}
				b.c.Send(p, dst, x.tag, chunkMsg{dstOff: ch.dstOff, data: data}, src.arr.Bytes(ch.count))
			}
			if ri < recvs {
				pay := b.c.Recv(p, peer, 0, 0).Payload.(chunkMsg)
				ri++
				off := rcv.place(chunk{dstOff: pay.dstOff, count: len(pay.data)})
				copy(rcv.dst.arr.Data[off:], pay.data)
				p.InvalidateRange(rcv.dst.arr.Addr(off), rcv.dst.arr.Bytes(len(pay.data)))
				p.Compute(8) // placement bookkeeping
			}
		}
	}
	p.SetContention(1)
	return rcv.held
}

// stagingNsPerByte prices the extra memory-speed pass the one-message
// variant takes over its payload at each end (gather into the staging
// buffer, stream back out of the arrival buffer).
const stagingNsPerByte = 1.0

// destMsg is the NAS-IS-style payload: every chunk for one destination
// in a single message; the receiver places each run.
type destMsg struct {
	runs []chunk
	data []uint32
}

// sendRecvOneMsg is one round of the NAS-IS-style exchange: the sender
// gathers the destination's chunks into one contiguous buffer (an extra
// local copy), and the receiver reorganizes the arriving runs into their
// final positions (extra local stores).
func (b *mpiBackend) sendRecvOneMsg(p *machine.Proc, sends []chunk, src part,
	to *machine.Array[uint32], dst, peer, tag int) {
	out := destMsg{runs: append([]chunk(nil), sends...)}
	for _, ch := range sends {
		src.arr.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
		out.data = append(out.data, src.arr.Data[ch.srcOff:ch.srcOff+ch.count]...)
		p.Compute(ch.count) // the gather copy's ALU work
	}
	// The gather writes a staging buffer the wire reads back: one
	// memory-speed pass over the payload.
	p.LocalMemNs(float64(4*len(out.data)) * stagingNsPerByte)
	b.c.Send(p, dst, tag, out, 4*len(out.data))

	msg := b.c.Recv(p, peer, 0, 0)
	in := msg.Payload.(destMsg)
	// Stream the arrived (uncached) payload back in before scattering.
	p.LocalMemNs(float64(msg.Bytes) * stagingNsPerByte)
	at := 0
	for _, ch := range in.runs {
		copy(to.Data[ch.dstOff:ch.dstOff+ch.count], in.data[at:at+ch.count])
		p.InvalidateRange(to.Addr(ch.dstOff), to.Bytes(ch.count))
		to.StoreRange(p, ch.dstOff, ch.dstOff+ch.count, machine.Private)
		p.Compute(ch.count + 8) // reorganization copy
		at += ch.count
	}
}
