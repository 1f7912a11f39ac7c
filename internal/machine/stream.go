package machine

import "repro/internal/cache"

// This file is the batched access-stream engine (DESIGN.md §13): kernels
// that charge an entire inner loop — a sequential source sweep, a
// per-element gather/scatter target, and the interleaved Compute cost —
// in one call instead of three wrapper calls per element. The kernels
// hoist everything the per-element path re-derives each iteration (cfg
// fields, phase accumulator) and give each access stream a private
// cache/TLB lane (cache.Lane, cache.TLBLane), the simulator's only memo
// mechanism: a stream's same-line and same-page runs resolve in one
// inlined compare, the LaneHit fast path.
//
// Every reference of every kernel is the same step: two inlined LaneHit
// tests, and on a lane miss one out-of-line slow step each (tlbSlow,
// cacheSlow) that runs the plain probe, recaptures the lane and ends in
// the same translated/accessed helpers as the per-element path. Block
// walks (LoadRange/StoreRange) are the sequential kernel over whole
// lines.
//
// Equivalence contract: every kernel charges exactly what the equivalent
// loop of per-element accesses charges — same counters, same replacement
// decisions, same float addition order — so simulated results are
// bit-identical whichever API a sort uses (TestStreamEquivalence,
// FuzzAccessOracle). Full paranoid mode adds no second copy of any loop:
// the slow steps leave the lane empty, so every access of the kernel's
// own loop reaches them and is diffed against the reference models
// there. Spot-sampled paranoid mode (Config.ParanoidSampleEvery > 1)
// keeps the lanes live; its oracles sit in missCharge/chargeWriteback.

// tlbSlow completes a translation whose TLB LaneHit returned false.
func (p *Proc) tlbSlow(l *cache.TLBLane, a Addr) {
	miss := p.tlb.LaneRefill(l, a)
	if p.pc != nil && p.pc.perAccess() {
		l.Reset()
	}
	p.translated(a, miss)
}

// cacheSlow completes a cache access whose LaneHit returned false.
func (p *Proc) cacheSlow(l *cache.Lane, a Addr, write bool, sh Sharing, overlap float64) {
	res := p.cache.AccessLaneMiss(l, a, write)
	if p.pc != nil && p.pc.perAccess() {
		l.Reset()
	}
	p.accessed(a, write, sh, overlap, res)
}

// grownLanes returns a reset lane scratch of b lanes backed by *store.
// The backing array is retained across calls, so steady-state kernels
// allocate nothing. Kernels use one scratch per per-bucket stream (the
// histogram gather, the scatter target): indexing lanes by bucket turns
// an access pattern that defeats any single memo — consecutive elements
// land in different buckets — back into per-bucket same-line runs that
// resolve on the inlined LaneHit path.
func grownLanes(store *[]cache.Lane, b int) []cache.Lane {
	ls := *store
	if cap(ls) < b {
		ls = make([]cache.Lane, b)
		*store = ls
	}
	ls = ls[:b]
	for i := range ls {
		ls[i].Reset()
	}
	return ls
}

// seqStream charges a sequential sweep of n elemSize-byte elements
// starting at a, with ops busy operations interleaved after each element
// — equivalent to `for each element { LoadSeq or StoreSeq; Compute }`.
func (p *Proc) seqStream(a Addr, elemSize, n int, write bool, sh Sharing, ops int) {
	if n <= 0 {
		return
	}
	cfg := &p.m.cfg
	opNs := float64(ops) * cfg.OpNs
	es := Addr(elemSize)
	t, c := p.tlb, p.cache
	tl, cl := &p.sTLB[0], &p.sLane
	t.AttachLane(tl)
	cl.Reset()
	ov := cfg.MissOverlap
	acc := p.phaseAcc
	for i := 0; i < n; i++ {
		if !t.LaneHit(tl, a) {
			p.tlbSlow(tl, a)
		}
		if !c.LaneHit(cl, a, write) {
			p.cacheSlow(cl, a, write, sh, ov)
		}
		p.clock += opNs
		p.stats.Breakdown.Busy += opNs
		if acc != nil {
			acc.Busy += opNs
		}
		a += es
	}
	t.DetachLanes()
}

// walkBlock touches each cache line of [a, a+bytes) once with stream
// overlap: the sequential kernel with whole lines as its elements and no
// interleaved compute. The TLB lane resolves a page's translation once
// per page run; the cache lane never hits, since no line repeats.
func (p *Proc) walkBlock(a Addr, bytes int, write bool, sh Sharing) {
	if bytes <= 0 {
		return
	}
	line := Addr(p.m.cfg.Cache.LineSize)
	first := a &^ (line - 1)
	p.seqStream(first, int(line), int((a+Addr(bytes)-first+line-1)/line), write, sh, 0)
}

// idxStream charges len(idx) accesses of elements base+idx[i], with ops
// busy operations after each — equivalent to `for each i { Load or
// Store of element idx[i]; Compute }`.
func (p *Proc) idxStream(base Addr, elemSize int, idx []int64, write bool, overlap float64, sh Sharing, ops int) {
	if len(idx) == 0 {
		return
	}
	opNs := float64(ops) * p.m.cfg.OpNs
	t, c := p.tlb, p.cache
	tl, cl := &p.sTLB[0], &p.sLane
	t.AttachLane(tl)
	cl.Reset()
	acc := p.phaseAcc
	for _, ix := range idx {
		a := base + Addr(int(ix)*elemSize)
		if !t.LaneHit(tl, a) {
			p.tlbSlow(tl, a)
		}
		if !c.LaneHit(cl, a, write) {
			p.cacheSlow(cl, a, write, sh, overlap)
		}
		p.clock += opNs
		p.stats.Breakdown.Busy += opNs
		if acc != nil {
			acc.Busy += opNs
		}
	}
	t.DetachLanes()
}

// CountStream charges a radix counting pass over src.Data[lo:lo+n]: per
// element, one sequential key read (srcSh), the digit extraction
// (key>>shift)&mask, one dependent read of tbl[digit] (tblSh), the
// histogram increment tbl.Data[digit]++, and opsPerElem busy operations.
// It is the batched equivalent of sorts' countPass inner loop.
func (p *Proc) CountStream(src *Array[uint32], lo, n int, srcSh Sharing,
	shift uint, mask uint32, tbl *Array[int32], tblSh Sharing, opsPerElem int) {
	if n <= 0 {
		return
	}
	cfg := &p.m.cfg
	opNs := float64(opsPerElem) * cfg.OpNs
	sd := src.Data[lo : lo+n]
	td := tbl.Data
	srcA := src.base + Addr(lo*src.elemSize)
	srcES := Addr(src.elemSize)
	tblBase, tblES := tbl.base, tbl.elemSize
	t, c := p.tlb, p.cache
	sT, tT := &p.sTLB[0], &p.sTLB[1]
	sL := &p.sLane
	t.AttachLane(sT)
	t.AttachLane(tT)
	sL.Reset()
	// The histogram is indexed by a near-random digit, which defeats any
	// single memo; one lane per bucket pins each bucket's (shared) line so
	// steady-state table reads resolve on the inlined hit path.
	tl := grownLanes(&p.tLanes, int(mask)+1)
	ov := cfg.MissOverlap
	acc := p.phaseAcc
	for i := range sd {
		if !t.LaneHit(sT, srcA) {
			p.tlbSlow(sT, srcA)
		}
		if !c.LaneHit(sL, srcA, false) {
			p.cacheSlow(sL, srcA, false, srcSh, ov)
		}
		d := int(sd[i] >> shift & mask)
		ta := tblBase + Addr(d*tblES)
		if !t.LaneHit(tT, ta) {
			p.tlbSlow(tT, ta)
		}
		if !c.LaneHit(&tl[d], ta, false) {
			p.cacheSlow(&tl[d], ta, false, tblSh, 1)
		}
		td[d]++
		p.clock += opNs
		p.stats.Breakdown.Busy += opNs
		if acc != nil {
			acc.Busy += opNs
		}
		srcA += srcES
	}
	t.DetachLanes()
}

// PermuteStream charges a radix permutation pass: per element, one
// sequential key read from src (srcSh), the digit extraction, one
// dependent read of tbl[digit] (tblSh, the position-counter access), the
// position bump pos[digit]++, the key's scattered write to
// dst[pos] (dstSh), and opsPerElem busy operations. It is the batched
// equivalent of sorts' permutePass inner loop.
//
// The scatter target gets one cache lane per digit bucket: each bucket's
// writes walk its output run sequentially, so per-bucket lanes turn the
// scatter — which defeats a single lane — back into mask+1 independent
// same-line runs. The scatter stream's translations take the plain TLB
// probe; per-bucket TLB lanes would make every TLB eviction scan mask+1
// registry entries.
func (p *Proc) PermuteStream(src, dst *Array[uint32], lo, n int,
	shift uint, mask uint32, tbl *Array[int32], pos []int64,
	srcSh, tblSh, dstSh Sharing, opsPerElem int) {
	if n <= 0 {
		return
	}
	cfg := &p.m.cfg
	opNs := float64(opsPerElem) * cfg.OpNs
	sd := src.Data[lo : lo+n]
	dd := dst.Data
	srcA := src.base + Addr(lo*src.elemSize)
	srcES := Addr(src.elemSize)
	tblBase, tblES := tbl.base, tbl.elemSize
	dstBase, dstES := dst.base, dst.elemSize
	ov := cfg.MissOverlap
	t, c := p.tlb, p.cache
	sT, tT := &p.sTLB[0], &p.sTLB[1]
	sL := &p.sLane
	t.AttachLane(sT)
	t.AttachLane(tT)
	sL.Reset()
	tl := grownLanes(&p.tLanes, int(mask)+1)
	bl := grownLanes(&p.bLanes, int(mask)+1)
	acc := p.phaseAcc
	for i := range sd {
		if !t.LaneHit(sT, srcA) {
			p.tlbSlow(sT, srcA)
		}
		if !c.LaneHit(sL, srcA, false) {
			p.cacheSlow(sL, srcA, false, srcSh, ov)
		}
		k := sd[i]
		d := int(k >> shift & mask)
		ta := tblBase + Addr(d*tblES)
		if !t.LaneHit(tT, ta) {
			p.tlbSlow(tT, ta)
		}
		if !c.LaneHit(&tl[d], ta, false) {
			p.cacheSlow(&tl[d], ta, false, tblSh, 1)
		}
		at := pos[d]
		pos[d]++
		dd[at] = k
		da := dstBase + Addr(int(at)*dstES)
		p.translated(da, t.Access(da))
		if !c.LaneHit(&bl[d], da, true) {
			p.cacheSlow(&bl[d], da, true, dstSh, ov)
		}
		p.clock += opNs
		p.stats.Breakdown.Busy += opNs
		if acc != nil {
			acc.Busy += opNs
		}
		srcA += srcES
	}
	t.DetachLanes()
}

// A SeqCursor charges the accesses of one sequential stream whose
// elements are consumed on demand rather than in a closed loop — the
// multiway merge's run heads and output head. Each cursor carries its
// own cache and TLB lane, so several concurrently open cursors (one per
// merge run) each keep their hot line and page. Open with
// Array.OpenCursor; close every cursor of a batch at once with
// Proc.CloseCursors. The cursor must not be copied while open (its TLB
// lane is registered by address).
type SeqCursor struct {
	p        *Proc
	base     Addr
	elemSize int
	sh       Sharing
	write    bool
	overlap  float64
	lane     cache.Lane
	tlb      cache.TLBLane
}

// OpenCursor binds cur to this array's address range as a sequential
// stream of reads (write=false) or writes. Accesses charge like
// LoadSeq/StoreSeq.
func (a *Array[T]) OpenCursor(cur *SeqCursor, p *Proc, write bool, sh Sharing) {
	cur.p = p
	cur.base = a.base
	cur.elemSize = a.elemSize
	cur.sh = sh
	cur.write = write
	cur.overlap = p.m.cfg.MissOverlap
	cur.lane.Reset()
	p.tlb.AttachLane(&cur.tlb)
}

// Access charges one access of element i through the cursor's lanes.
func (cur *SeqCursor) Access(i int) {
	p := cur.p
	a := cur.base + Addr(i*cur.elemSize)
	if !p.tlb.LaneHit(&cur.tlb, a) {
		p.tlbSlow(&cur.tlb, a)
	}
	if !p.cache.LaneHit(&cur.lane, a, cur.write) {
		p.cacheSlow(&cur.lane, a, cur.write, cur.sh, cur.overlap)
	}
}

// CloseCursors detaches the TLB lanes of every cursor opened on this
// processor since the last close. Cursor batches must be strictly
// bracketed (open all, use, close all) and must not overlap stream
// kernel calls — block walks (LoadRange/StoreRange) included — which
// bracket their own lanes.
func (p *Proc) CloseCursors() { p.tlb.DetachLanes() }

// LoadRangeWith charges a sequential read of elements [lo, hi) with
// opsPerElem busy operations interleaved per element — the batched
// equivalent of `for i := lo; i < hi; i++ { LoadSeq(i); Compute }`.
// Unlike LoadRange, which touches each cache line once (a block
// transfer), this charges one access per element.
func (a *Array[T]) LoadRangeWith(p *Proc, lo, hi int, sh Sharing, opsPerElem int) {
	p.seqStream(a.Addr(lo), a.elemSize, hi-lo, false, sh, opsPerElem)
}

// StoreRangeWith charges a sequential write of elements [lo, hi) with
// opsPerElem busy operations per element.
func (a *Array[T]) StoreRangeWith(p *Proc, lo, hi int, sh Sharing, opsPerElem int) {
	p.seqStream(a.Addr(lo), a.elemSize, hi-lo, true, sh, opsPerElem)
}

// GatherLoad charges dependent reads of elements idx[0..] with
// opsPerElem busy operations per element. Gathered reads are dependent
// accesses, so misses do not overlap.
func (a *Array[T]) GatherLoad(p *Proc, idx []int64, sh Sharing, opsPerElem int) {
	p.idxStream(a.base, a.elemSize, idx, false, 1, sh, opsPerElem)
}

// ScatterStore charges scattered writes of elements idx[0..] with
// opsPerElem busy operations per element. Stores post through the write
// buffer, so scattered write misses overlap like streams (see
// Proc.Store).
func (a *Array[T]) ScatterStore(p *Proc, idx []int64, sh Sharing, opsPerElem int) {
	p.idxStream(a.base, a.elemSize, idx, true, p.m.cfg.MissOverlap, sh, opsPerElem)
}
