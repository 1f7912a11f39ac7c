package sorts

import (
	"slices"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/shmem"
)

// shmemBackend is the SHMEM one-sided model, transformed from the MPI
// programs as in the paper: whatever a remote rank addresses lives in a
// symmetric segment, small vectors are collected symmetrically (the
// SHMEM allgather), and keys move in one-sided transfers that involve
// only the initiating rank.
type shmemBackend struct {
	// put makes the exchange sender-initiated: each rank puts its runs
	// into the destinations' symmetric receive buffers (the Origin's
	// cheap primitive; it needs a placed plan). Pushing keeps a skewed
	// partition's cost on the senders, who spread it: regular sampling
	// balances what each rank sends, not what it receives. The default is
	// receiver-initiated: each rank gets the runs destined for it, which
	// also lands them in its cache.
	put bool

	m  *machine.Machine
	c  *shmem.Comm
	st *store
	// sym maps the partitioned arrays remote ranks address to their
	// symmetric segments.
	sym map[*partitioned]*shmem.Sym[uint32]
	// parts is radix sort's blocked destination layout.
	parts []int64

	// Symmetric vectors of the collectives: one rank's contribution and
	// the rank-major collection of everyone's, an address range the
	// collective charges but holds no bytes in (shmem.Collect).
	histSeg, histAll     *shmem.Sym[int32]  // radix histograms
	sampleSeg, sampleAll *shmem.Sym[uint32] // samples (PSRS: rank 0's pool the ranks put into)
	boundSeg, boundAll   *shmem.Sym[int64]  // sample sort's partition boundaries
	pivotSeg             *shmem.Sym[uint32] // PSRS's pivot broadcast
	countSeg, countAll   *shmem.Sym[int32]  // PSRS's per-destination counts
}

func (b *shmemBackend) model() string { return "shmem" }

// received: a get or put leaves the keys in this rank's own memory.
func (b *shmemBackend) received() machine.Sharing { return machine.Private }

// symParts wraps a symmetric segment whose rank-i piece holds partition
// i of an n-key array.
func (b *shmemBackend) symParts(s *shmem.Sym[uint32], n int) *partitioned {
	pt := newPartitioned(len(s.Seg))
	for i, seg := range s.Seg {
		lo, hi := keys.Bounds(n, len(s.Seg), i)
		pt.part[i] = part{arr: seg, n: hi - lo}
	}
	b.sym[pt] = s
	return pt
}

func (b *shmemBackend) alloc(m *machine.Machine, cfg Config, alg algorithm, n, perProc int) *store {
	P, B := m.Procs(), cfg.Buckets()
	c := shmem.New(m)
	b.m, b.c, b.sym = m, c, make(map[*partitioned]*shmem.Sym[uint32])
	st := &store{hist: make([]*machine.Array[int32], P)}
	b.st = st
	// Partition sizes differ by at most one key; symmetric segments are
	// sized for the largest partition.
	maxPart := (n + P - 1) / P
	if alg == algRadix {
		// Only the send segments are addressed remotely; the key arrays
		// stay private.
		b.parts = blockedParts(n, P)
		st.buf = b.symParts(shmem.NewSym[uint32](c, "shm.send", maxPart), n)
		b.histSeg = shmem.NewSym[int32](c, "shm.hist", B)
		b.histAll = shmem.NewSymReserve[int32](c, "shm.hists", B*P)
		st.keys, st.tmp = newPartitioned(P), newPartitioned(P)
	} else {
		st.keys = b.symParts(shmem.NewSym[uint32](c, "shm.keys", maxPart), n)
		st.tmp = b.symParts(shmem.NewSym[uint32](c, "shm.tmp", maxPart), n)
		b.sampleSeg = shmem.NewSym[uint32](c, "shm.smp", perProc)
		b.sampleAll = shmem.NewSymReserve[uint32](c, "shm.smps", perProc*P)
		if alg == algSample {
			b.boundSeg = shmem.NewSym[int64](c, "shm.bnd", P+1)
			b.boundAll = shmem.NewSymReserve[int64](c, "shm.bnds", (P+1)*P)
		} else {
			b.pivotSeg = shmem.NewSym[uint32](c, "shm.piv", max(1, P-1))
			b.countSeg = shmem.NewSym[int32](c, "shm.dc", P)
			b.countAll = shmem.NewSymReserve[int32](c, "shm.dcs", P*P)
			// The root's pool is the one collection segment a program
			// reads through its Data.
			b.sampleAll.Seg[0].Grow(perProc * P)
		}
		st.recv, st.out = newPartitioned(P), newPartitioned(P)
		if b.put {
			// Puts target the receive buffers, so their addresses must be
			// symmetric; each rank grows its own (from empty) once its
			// incoming size is known.
			st.recv = b.symParts(shmem.NewSymReserve[uint32](c, "shm.recv", n), 0)
		}
	}
	for i := 0; i < P; i++ {
		if alg == algRadix {
			st.keys.part[i] = onProc(m, "shm.keys", n, i)
			st.tmp.part[i] = onProc(m, "shm.tmp", n, i)
		} else {
			if !b.put {
				st.recv.part[i] = reserved(m, "shm.recv", n, i)
			}
			st.out.part[i] = reserved(m, "shm.out", n, i)
		}
		st.hist[i] = machine.NewArrayOnProc[int32](m, "shm.hist", B, i)
	}
	return st
}

// publish copies mine into this rank's segment; copyOps is the ALU work
// charged for the copy.
func publish[T any](p *machine.Proc, seg *shmem.Sym[T], mine []T, copyOps int) {
	local := seg.Local(p)
	copy(local.Data, mine)
	local.StoreRange(p, 0, len(mine), machine.Private)
	p.Compute(copyOps)
}

// collect is the symmetric allgather: publish mine, then collect every
// rank's segment into all, returned as per-rank rows that alias the
// ranks' seg segments until they publish again (after the next barrier).
func collect[T any](p *machine.Proc, seg, all *shmem.Sym[T], mine []T, copyOps int) [][]T {
	publish(p, seg, mine, copyOps)
	return shmem.Collect(p, seg, all, seg.Local(p).Len())
}

// histograms collects the counts symmetrically; as under MPI every rank
// is charged for a plan the host builds once. The rows alias the ranks'
// histogram segments, which the next pass republishes after the
// exchange's fence: the shared plan keeps none of them.
func (b *shmemBackend) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	return sharedPlan(p, collect(p, b.histSeg, b.histAll, counts, len(counts)), b.parts)
}

func (b *shmemBackend) permuteTarget(p *machine.Proc, plan *chunkPlan, _ *partitioned) target {
	return bufferTarget(b.st, plan, p.ID)
}

func (b *shmemBackend) publishSamples(p *machine.Proc, samples []uint32) {
	publish(p, b.sampleSeg, samples, len(samples))
}

// splitters collects the samples symmetrically; splitters are computed
// redundantly everywhere — each rank is charged the merge of the pool,
// which the host sorts once, in a copy.
func (b *shmemBackend) splitters(p *machine.Proc, samples []uint32) []uint32 {
	rows := collect(p, b.sampleSeg, b.sampleAll, samples, len(samples))
	return splittersOf(p, b.m.Procs(), func() []uint32 { return slices.Concat(rows...) })
}

// pivots: every rank pushes its samples into the root's pool segment —
// the senders proceed in parallel, so the root never pays a serial
// round-trip per rank — the root picks the pivots, and after a barrier
// every other rank gets them from the root's pivot segment.
func (b *shmemBackend) pivots(p *machine.Proc, samples []uint32) []uint32 {
	me, P := p.ID, b.m.Procs()
	pool := b.sampleAll.Local(p)
	if me == 0 {
		copy(pool.Data[:len(samples)], samples)
		pool.StoreRange(p, 0, len(samples), machine.Private)
		p.Compute(len(samples))
	} else {
		b.sampleAll.PutFrom(p, b.sampleSeg.Local(p), 0, 0, me*P, len(samples))
		p.Compute(4)
	}
	b.c.Barrier(p)
	if me == 0 {
		all := make([]uint32, 0, P*P)
		for q := 0; q < P; q++ {
			// Per-rank sample counts are min(P, partition size) —
			// deterministic, so no count exchange.
			cnt := min(P, b.st.keys.part[q].n)
			if q != 0 {
				// The puts invalidated our copies of these lines.
				pool.LoadRange(p, q*P, q*P+cnt, machine.Private)
			}
			all = append(all, pool.Data[q*P:q*P+cnt]...)
			p.Compute(4)
		}
		pv := pivotsOf(p, all, P)
		copy(b.pivotSeg.Local(p).Data, pv)
		b.pivotSeg.Local(p).StoreRange(p, 0, len(pv), machine.Private)
	}
	b.c.Barrier(p)
	if me != 0 {
		// Broadcast by get: pull rank 0's pivots into the local segment.
		b.pivotSeg.Get(p, 0, 0, 0, P-1)
		p.Compute(4)
	}
	pivots := append([]uint32(nil), b.pivotSeg.Local(p).Data[:P-1]...)
	p.Compute(P)
	return pivots
}

// routes collects the per-destination counts for a placed plan, and
// sample sort's boundary vectors themselves otherwise.
func (b *shmemBackend) routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan {
	P := b.m.Procs()
	if placed {
		return sharedPlan(p, collect(p, b.countSeg, b.countAll, psrsDestCounts(p, bnd), 0), nil)
	}
	rows := collect(p, b.boundSeg, b.boundAll, bnd, P)
	p.Compute(2 * P) // summing this rank's incoming counts
	return &chunkPlan{buckets: P, bufPos: rows}
}

// exchange moves every run with one one-sided transfer, rotating through
// the peers from self so all ranks don't hammer rank 0 at once; keys
// staying local move with plain copies.
func (b *shmemBackend) exchange(p *machine.Proc, plan *chunkPlan, from, to *partitioned, x xfer) int {
	me, P := p.ID, b.m.Procs()
	src, fromSym, toSym := from.part[me], b.sym[from], b.sym[to]
	rcv := newReceiver(plan, to.part[me], me)
	fence := func() {
		label(p, x.sync)
		b.c.Barrier(p)
	}
	// What a transfer touches remotely must be ready: a put's target
	// grown, the send buffers a radix get reads filled. Only a get from
	// sorted keys, complete since before the routes collective's barrier,
	// needs no fence.
	if b.put || plan.parts != nil {
		fence()
	}
	label(p, x.transfer)
	p.SetContention(p.ContentionFactor(P))
	for k := 0; k < P; k++ {
		peer := (me + k) % P
		s, d := peer, me
		if b.put {
			s, d = me, peer
		}
		plan.each(s, d, func(ch chunk) {
			switch {
			case peer == me:
				copyRun(p, src, ch.srcOff, rcv.dst, rcv.place(ch), ch.count,
					machine.Private, machine.Private)
			case b.put:
				toSym.PutFrom(p, src.arr, ch.srcOff, peer, ch.dstOff, ch.count)
				p.Compute(4)
			default:
				fromSym.GetInto(p, rcv.dst.arr, rcv.place(ch), peer, ch.srcOff, ch.count)
				p.Compute(4)
			}
		})
	}
	p.SetContention(1)
	// Sources must not be overwritten until everyone pulled, and every
	// pushed run must have landed before it is read.
	fence()
	return rcv.held
}
