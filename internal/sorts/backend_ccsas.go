package sorts

import (
	"repro/internal/ccsas"
	"repro/internal/keys"
	"repro/internal/machine"
)

// ccsasBackend is the cache-coherent shared address space model: the key
// arrays are single shared arrays blocked across the processors, small
// vectors are published with plain stores and read — after a barrier —
// by exactly the processors that need them, and keys move by ordinary
// loads and stores whose coherence traffic the machine layer prices.
type ccsasBackend struct {
	// buffered selects the paper's CC-SAS-NEW radix sort (permute into a
	// private buffer, then copy contiguous chunks to their destinations)
	// over the original SPLASH-2 program, which writes keys straight into
	// the mostly remote output as their positions are computed — the
	// temporally scattered remote writes whose coherence-protocol traffic
	// the paper identifies as the bottleneck.
	buffered bool

	m     *machine.Machine
	world *ccsas.World
	st    *store
	// groupSize is sample sort's processes-per-group for sample
	// collection; perProc the sample slots each processor publishes.
	groupSize, perProc int

	// tree accumulates radix histograms (the SPLASH-2 binary prefix
	// tree). whole is the shared output as the one destination partition
	// its chunk copies are planned against: stores into a shared array
	// are not split at processor boundaries.
	tree  *ccsas.PrefixTree
	whole []int64

	// The splitter sorts' shared vectors: every processor's samples, the
	// group collectors' merged pools (sample sort), the selected
	// splitters or pivots, and every processor's P+1 boundaries.
	samples, groups, chosen *machine.Array[uint32]
	bounds                  *machine.Array[int64]
}

func (b *ccsasBackend) model() string {
	if b.buffered {
		return "ccsas-new"
	}
	return "ccsas"
}

// received: the partition was filled by other processors' stores, whose
// caches hold its lines dirty.
func (b *ccsasBackend) received() machine.Sharing { return machine.DirtyElsewhere }

// sharedParts allocates one n-key shared array blocked across the
// processors.
func sharedParts(m *machine.Machine, name string, n int) *partitioned {
	arr := machine.NewArrayBlocked[uint32](m, name, n)
	pt := &partitioned{part: make([]part, m.Procs()), shared: true}
	for i := range pt.part {
		lo, hi := keys.Bounds(n, m.Procs(), i)
		pt.part[i] = part{arr: arr, lo: lo, n: hi - lo}
	}
	return pt
}

func (b *ccsasBackend) alloc(m *machine.Machine, cfg Config, alg algorithm, n, perProc int) *store {
	P := m.Procs()
	b.m, b.world, b.groupSize, b.perProc = m, ccsas.NewWorld(m), min(groupSize, P), perProc
	st := &store{hist: make([]*machine.Array[int32], P)}
	b.st = st
	st.keys = sharedParts(m, "cc.keys", n)
	st.tmp = sharedParts(m, "cc.tmp", n)
	if alg == algRadix {
		b.tree = ccsas.NewPrefixTree(b.world, cfg.Buckets())
		b.whole = []int64{0, int64(n)}
		if b.buffered {
			st.buf = newPartitioned(P)
		}
	} else {
		b.samples = machine.NewArrayBlocked[uint32](m, "cc.samples", P*perProc)
		if alg == algSample {
			b.groups = machine.NewArrayBlocked[uint32](m, "cc.groups", P*perProc)
		}
		b.chosen = machine.NewArrayRoundRobin[uint32](m, "cc.chosen", max(1, P-1))
		b.bounds = machine.NewArrayBlocked[int64](m, "cc.bounds", P*(P+1))
		st.recv, st.out = newPartitioned(P), newPartitioned(P)
	}
	for i := 0; i < P; i++ {
		st.hist[i] = machine.NewArrayOnProc[int32](m, "cc.hist", cfg.Buckets(), i)
		switch {
		case st.recv != nil:
			st.recv.part[i] = reserved(m, "cc.recv", n, i)
			st.out.part[i] = reserved(m, "cc.out", n, i)
		case st.buf != nil:
			st.buf.part[i] = onProc(m, "cc.buf", n, i)
		}
	}
	return st
}

// histograms accumulates the local histograms through the binary prefix
// tree, which hands each processor only what the SPLASH-2 program needs:
// its own rank within every bucket and the bucket totals. That one-row
// plan is a per-processor view, not replicated work, so each processor
// builds its own.
func (b *ccsasBackend) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	rank, total := b.tree.Reduce(p, counts)
	return newRankPlan(p.ID, b.m.Procs(), counts, rank, total, b.whole)
}

func (b *ccsasBackend) permuteTarget(p *machine.Proc, plan *chunkPlan, nxt *partitioned) target {
	me := p.ID
	if b.buffered {
		// The prefix tree delivered no buffer offsets; scan for them.
		p.Compute(2 * plan.buckets)
		return bufferTarget(b.st, plan, me)
	}
	// Original: scatter keys straight to their global positions — (start
	// of bucket d) + (my rank within bucket d).
	pos := make([]int64, plan.buckets)
	for d := range pos {
		pos[d] = plan.gStart[d] + plan.rank[me][d]
	}
	return target{arr: nxt.part[0].arr, pos: pos, class: machine.ConflictWrite,
		contention: p.ScatteredContentionFactor(b.m.Procs(), 4*b.st.keys.part[me].n)}
}

// publishSamples stores this processor's samples into its slots of the
// shared sample array.
func (b *ccsasBackend) publishSamples(p *machine.Proc, samples []uint32) {
	at := p.ID * b.perProc
	copy(b.samples.Data[at:at+len(samples)], samples)
	b.samples.StoreRange(p, at, at+len(samples), machine.Private)
}

// choose publishes the splitters or pivots one processor selected.
func (b *ccsasBackend) choose(p *machine.Proc, pv []uint32) {
	copy(b.chosen.Data, pv)
	b.chosen.StoreRange(p, 0, len(pv), machine.Private)
}

// readChosen is the broadcast: after a barrier every processor reads the
// published values (shared-read lines replicate in each reader's cache).
func (b *ccsasBackend) readChosen(p *machine.Proc) []uint32 {
	P := b.m.Procs()
	b.world.Barrier(p)
	b.chosen.LoadRange(p, 0, P-1, machine.SharedRead)
	pv := make([]uint32, P-1)
	copy(pv, b.chosen.Data[:P-1])
	p.Compute(P)
	return pv
}

// splitters is the paper's group-based selection: every set of groupSize
// processes elects a collector that merges its group's samples, and the
// lead collector merges the group results and selects the splitters.
func (b *ccsasBackend) splitters(p *machine.Proc, samples []uint32) []uint32 {
	me, P, k, g := p.ID, b.m.Procs(), b.perProc, b.groupSize
	b.publishSamples(p, samples)
	b.world.Barrier(p)
	if me%g == 0 {
		lo, hi := me, min(me+g, P)
		for q := lo; q < hi; q++ {
			b.samples.LoadRange(p, q*k, (q+1)*k, machine.RemoteProduced)
		}
		// Collectors publish their group's merged samples, grouped
		// contiguously; the lead collector reads them all.
		pool := b.groups.Data[lo*k : hi*k]
		copy(pool, b.samples.Data[lo*k:hi*k])
		mergeSamplesCharged(p, pool, hi-lo)
		b.groups.StoreRange(p, lo*k, hi*k, machine.Private)
	}
	b.world.Barrier(p)
	if me == 0 {
		for lo := 0; lo < P; lo += g {
			b.groups.LoadRange(p, lo*k, min(lo+g, P)*k, machine.RemoteProduced)
		}
		all := append([]uint32(nil), b.groups.Data...)
		mergeSamplesCharged(p, all, (P+g-1)/g)
		b.choose(p, splittersFrom(p, all, P))
	}
	return b.readChosen(p)
}

// pivots: processor 0 alone gathers all samples with remote reads,
// merges the P sorted runs and picks the pivots — PSRS's serialized
// pivot step, unlike the group-based election of the sample sort.
func (b *ccsasBackend) pivots(p *machine.Proc, _ []uint32) []uint32 {
	P, k := b.m.Procs(), b.perProc
	b.world.Barrier(p)
	if p.ID == 0 {
		pool := make([]uint32, 0, P*k)
		for q := 0; q < P; q++ {
			class := machine.RemoteProduced
			if q == 0 {
				class = machine.Private
			}
			// Every processor publishes min(P, partition size) samples —
			// deterministic from the block bounds, so no count exchange.
			cnt := min(k, b.st.keys.part[q].n)
			if cnt == 0 {
				continue
			}
			b.samples.LoadRange(p, q*k, q*k+cnt, class)
			pool = append(pool, b.samples.Data[q*k:q*k+cnt]...)
			p.Compute(3)
		}
		b.choose(p, pivotsOf(p, pool, P))
	}
	return b.readChosen(p)
}

// routes publishes the boundaries; after the barrier each processor
// reads what it needs. Sample sort pulls one chunk per source, so it
// reads just the two boundary words around its own chunk in each
// source's vector; PSRS reads every vector whole and builds the plan
// redundantly — every processor is charged the reads and the counting,
// and the host builds the one plan they all arrive at once.
func (b *ccsasBackend) routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan {
	me, P := p.ID, b.m.Procs()
	w := P + 1
	copy(b.bounds.Data[me*w:(me+1)*w], bnd)
	b.bounds.StoreRange(p, me*w, (me+1)*w, machine.Private)
	b.world.Barrier(p)
	rows := make([][]int64, P)
	for q := range rows {
		rows[q] = b.bounds.Data[q*w : (q+1)*w]
	}
	if !placed {
		for q := 0; q < P; q++ {
			b.bounds.LoadRange(p, q*w+me, q*w+me+2, machine.RemoteProduced)
			p.Compute(3)
		}
		return &chunkPlan{buckets: P, bufPos: rows}
	}
	for q := 0; q < P; q++ {
		class := machine.RemoteProduced
		if q == me {
			class = machine.Private
		}
		b.bounds.LoadRange(p, q*w, (q+1)*w, class)
		p.Compute(P) // source q's per-destination counts
	}
	hists := func() [][]int32 {
		h := make([][]int32, P)
		for q := range h {
			h[q] = destCounts(rows[q])
		}
		return h
	}
	return shared(p,
		func() *chunkPlan { return newChunkPlan(hists(), nil) },
		func(pl *chunkPlan) *inputDiff { return pl.differs(hists()) })
}

// exchange moves keys with the processor's own loads and stores. A
// shared destination (radix) is written directly: contiguous chunk
// copies out of the private send buffer, each a run of remote stores,
// and the pass ends with a barrier. A private destination (the splitter
// sorts' receive buffers) is filled with remote READS of the sources'
// sorted partitions — no remote writes, no scattered traffic — which
// routes' barrier already made safe.
func (b *ccsasBackend) exchange(p *machine.Proc, plan *chunkPlan, from, to *partitioned, x xfer) int {
	me, P := p.ID, b.m.Procs()
	bulk := p.ContentionFactor(P)
	if !to.shared {
		rcv := newReceiver(plan, to.part[me], me)
		p.SetContention(bulk)
		for k := 0; k < P; k++ {
			q := (me + k) % P
			class := machine.RemoteProduced
			if q == me {
				class = machine.Private
			}
			plan.each(q, me, func(ch chunk) {
				copyRun(p, from.part[q], ch.srcOff, rcv.dst, rcv.place(ch), ch.count,
					class, machine.Private)
			})
		}
		p.SetContention(1)
		return rcv.held
	}
	if from != nil {
		label(p, x.transfer)
		p.SetContention(bulk)
		plan.each(me, 0, func(ch chunk) {
			copyRun(p, from.part[me], ch.srcOff, to.part[0], ch.dstOff, ch.count,
				machine.Private, machine.ConflictWrite)
		})
		p.SetContention(1)
	}
	label(p, x.sync)
	b.world.Barrier(p)
	return to.part[me].n
}
