package machine

import "repro/internal/cache"

// This file is the batched access-stream engine (DESIGN.md §13): kernels
// that charge an entire inner loop — a sequential source sweep, a
// per-element gather/scatter target, and the interleaved Compute cost —
// in one call instead of three wrapper calls per element. The kernels
// give each access stream a private cache/TLB lane (cache.Lane,
// cache.TLBLane), the simulator's only memo mechanism, and touch on
// their fast path only what can have changed since the last slow step.
//
// Every reference of every kernel is the same step: count the access,
// test the TLB lane, on failure tlbSlow; test the cache lane, on failure
// cacheSlow. The slow steps run the plain probe, recapture the lane and
// end in the same translated/accessed helpers as the per-element path. A
// kernel loop carries the two access counters in registers (counters), so
// an access that hits both lanes stores nothing but its line's LRU word,
// and charges its busy time once, when it ends: the clock is an integer,
// so the sum does not depend on where the additions fall. Block walks
// (LoadRange/StoreRange) are the sequential kernel over whole lines.
//
// Equivalence contract: every kernel charges exactly what the equivalent
// loop of per-element accesses charges — same counters, same replacement
// decisions, same picoseconds — so simulated results are
// bit-identical whichever API a sort uses (TestStreamEquivalence,
// FuzzAccessOracle). Full paranoid mode adds no second copy of any loop:
// the slow steps leave the lane empty, so every access of the kernel's
// own loop reaches them and is diffed against the reference models
// there. Spot-sampled paranoid mode (Config.ParanoidSampleEvery > 1)
// keeps the lanes live; its oracles sit in missCharge/chargeWriteback.

// counters is what a kernel loop keeps in registers instead of bumping
// through p.cache and p.tlb on every access. regs loads them when a
// kernel starts and settle stores them when it ends. In between only the
// slow steps look at the processor's state, and of these values they use
// one: the cache's access count, the LRU stamp of the line they fill.
// They do not count accesses — that is the kernel loop's side of the
// step — so the count is all a slow step is handed.
type counters struct {
	tick uint64 // cache accesses so far, which is also the LRU clock
	// xlat is the TLB's access count minus tick: a constant, since every
	// step of a kernel counts one translation and one cache access.
	xlat uint64
	// coast is the end of the source sweep's run: source elements below
	// this address lie on the line and page the sweep's last full lane
	// test found resident. Inside a kernel call only a slow step can
	// evict a line or a page, so those elements need no test, only the
	// line's LRU stamp (Lane.Stamp) — and every slow step, on whichever
	// stream of the kernel, returns a coast of 0, which sends the next
	// source element back to the full test.
	coast Addr
}

// regs loads a kernel's registers from the processor's state.
func (p *Proc) regs() counters {
	tick := p.cache.Accesses()
	return counters{tick: tick, xlat: p.tlb.Accesses() - tick}
}

// settle stores a kernel's registers back and charges its busy time, ops
// operations in all.
func (p *Proc) settle(c counters, ops int) {
	p.cache.SetAccesses(c.tick)
	p.tlb.SetAccesses(c.tick + c.xlat)
	p.Compute(ops)
}

// tlbSlow completes a translation, already counted, whose lane test
// failed. The result is the caller's new counters.coast (none).
func (p *Proc) tlbSlow(l *cache.TLBLane, a Addr) (coast Addr) {
	miss := p.tlb.LaneRefill(l, a)
	if p.pc != nil && p.pc.perAccess() {
		p.tlb.AttachLane(l)
	}
	p.translated(a, miss)
	return 0
}

// cacheSlow completes the cache access numbered tick whose lane test
// failed. The result is the caller's new counters.coast (none).
func (p *Proc) cacheSlow(tick uint64, l *cache.Lane, a Addr, write bool, sh Sharing, ov overlap) (coast Addr) {
	p.cache.SetAccesses(tick)
	res := p.cache.AccessLaneMiss(l, a, write)
	if p.pc != nil && p.pc.perAccess() {
		l.Reset()
	}
	p.accessed(a, write, sh, ov, res)
	return 0
}

// geom is the cache and TLB geometry a kernel loop's inlined lane tests
// need.
type geom struct {
	pageShift, lineShift uint
	// unit is the smaller of the line and page sizes, minus one.
	unit Addr
}

func (p *Proc) geom() geom {
	cfg := &p.m.cfg
	return geom{
		pageShift: p.tlb.PageShift(),
		lineShift: p.cache.LineShift(),
		unit:      Addr(min(cfg.Cache.LineSize, cfg.TLB.PageSize) - 1),
	}
}

// page and line are the numbers a's lane tests compare. (Masking the
// shift count tells the compiler it is below 64, which spares each test
// the oversized-shift check.)
func (g geom) page(a Addr) uint64 { return uint64(a) >> (g.pageShift & 63) }
func (g geom) line(a Addr) uint64 { return uint64(a) >> (g.lineShift & 63) }

// runEnd is the first address past a that is on another line or page.
func (g geom) runEnd(a Addr) Addr { return (a | g.unit) + 1 }

// The radix kernels index the histogram and the scatter target by a
// near-random digit, which defeats any single memo. The histogram stays
// put, so it takes one cache lane per line of the table (tblScratch): a
// table of 2^8 int32 counters spans 8 or 9 lines, and every digit on a
// line resolves on that line's inlined test. The scatter target
// walks one output run per bucket, so it takes one lane set per digit
// (bucketLanes), which turns each bucket's stores back into same-line,
// same-page runs — unless the whole scatter fits in no more lines than
// there are digits, as a small partition's does, where it too takes one
// lane set per line (dstScratch). Which lane serves an access never
// shows in the simulation: a lane is a self-validating memo.
type bucketLanes struct {
	dst  cache.Lane
	dstT cache.TLBLane
}

// tblLaneCap is how many histogram lanes a Proc keeps: line l of a
// table whose first line is f takes lane (l-f) mod tblLaneCap, so a table
// of up to 2^13 counters on 128-byte lines has a lane per line, and a
// larger one shares each lane among a few of its lines. (A fixed array
// spares the kernel loops a slice's length and bounds check.)
const tblLaneCap = 256

// tblScratch empties the lanes a histogram of b int32 counters at base
// uses and returns them with the number of its first line. The array is
// retained on the Proc, so steady-state kernels allocate nothing.
func (p *Proc) tblScratch(g geom, base Addr, b int) (*[tblLaneCap]cache.Lane, uint64) {
	if p.tblLanes == nil {
		p.tblLanes = new([tblLaneCap]cache.Lane)
	}
	first := g.line(base)
	n := min(int(g.line(base+Addr(b*wordBytes-1))-first)+1, tblLaneCap)
	for i := range p.tblLanes[:n] {
		p.tblLanes[i].Reset()
	}
	return p.tblLanes, first
}

// dstScratch returns emptied lane sets for a scatter of n keys into the
// array at base from the b start positions pos. The scatter stays within
// keys [min(pos), max(pos)+n); if those span at most b lines, there is
// one lane set per line and perLine is true, the lane of line l being
// l-first; otherwise there is one per digit. Like tblScratch it reuses a
// backing array on the Proc.
func (p *Proc) dstScratch(g geom, base Addr, pos []int64, n, b int) (bk []bucketLanes, perLine bool, first uint64) {
	lo, hi := pos[0], pos[0]
	for _, at := range pos[:b] {
		lo, hi = min(lo, at), max(hi, at)
	}
	first = g.line(base + Addr(lo*wordBytes))
	if lines := g.line(base+Addr((hi+int64(n))*wordBytes-1)) - first + 1; lines <= uint64(b) {
		b, perLine = int(lines), true
	}
	if cap(p.buckets) < b {
		p.buckets = make([]bucketLanes, b)
	}
	bk = p.buckets[:b]
	for i := range bk {
		bk[i].dst.Reset()
		p.tlb.AttachLane(&bk[i].dstT)
	}
	return bk, perLine, first
}

// seqStream charges a sequential sweep of n elemSize-byte elements
// starting at a, with ops busy operations interleaved after each element
// — equivalent to `for each element { access(a, write, sh, MissOverlap);
// Compute }`.
func (p *Proc) seqStream(a Addr, elemSize, n int, write bool, sh Sharing, ops int) {
	if n <= 0 {
		return
	}
	es := Addr(elemSize)
	tl, cl := &p.sTLB[0], &p.sLane
	p.tlb.AttachLane(tl)
	cl.Reset()
	g := p.geom()
	c := p.regs()
	for i := 0; i < n; i++ {
		c.tick++
		if a < c.coast {
			cl.Stamp(c.tick)
		} else {
			c.coast = g.runEnd(a)
			if !tl.Hit(g.page(a)) {
				c.coast = p.tlbSlow(tl, a)
			}
			if !cl.Hit(g.line(a), c.tick, write) {
				c.coast = p.cacheSlow(c.tick, cl, a, write, sh, streamed)
			}
		}
		a += es
	}
	p.settle(c, n*ops)
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
// busy operations after each — equivalent to `for each i { access of
// element idx[i] at overlap; Compute }`.
func (p *Proc) idxStream(base Addr, elemSize int, idx []int64, write bool, ov overlap, sh Sharing, ops int) {
	if len(idx) == 0 {
		return
	}
	tl, cl := &p.sTLB[0], &p.sLane
	p.tlb.AttachLane(tl)
	cl.Reset()
	g := p.geom()
	c := p.regs()
	for _, ix := range idx {
		a := base + Addr(int(ix)*elemSize)
		c.tick++
		if !tl.Hit(g.page(a)) {
			p.tlbSlow(tl, a)
		}
		if !cl.Hit(g.line(a), c.tick, write) {
			p.cacheSlow(c.tick, cl, a, write, sh, ov)
		}
	}
	p.settle(c, len(idx)*ops)
}

// wordBytes is the element size of the radix kernels' arrays: uint32
// keys, int32 histogram entries.
const wordBytes = 4

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
	td := tbl.Data
	srcA, tblBase := src.base+Addr(lo*wordBytes), tbl.base
	sT, tT := &p.sTLB[0], &p.sTLB[1]
	sL := &p.sLane
	p.tlb.AttachLane(sT)
	p.tlb.AttachLane(tT)
	sL.Reset()
	g := p.geom()
	tl, tl0 := p.tblScratch(g, tblBase, int(mask)+1)
	c := p.regs()
	for _, key := range src.Data[lo : lo+n] {
		c.tick++
		if srcA < c.coast {
			sL.Stamp(c.tick)
		} else {
			c.coast = g.runEnd(srcA)
			if !sT.Hit(g.page(srcA)) {
				c.coast = p.tlbSlow(sT, srcA)
			}
			if !sL.Hit(g.line(srcA), c.tick, false) {
				c.coast = p.cacheSlow(c.tick, sL, srcA, false, srcSh, streamed)
			}
		}
		d := int(key >> shift & mask)
		ta := tblBase + Addr(d*wordBytes)
		c.tick++
		if !tT.Hit(g.page(ta)) {
			c.coast = p.tlbSlow(tT, ta)
		}
		if tln := g.line(ta); !tl[(tln-tl0)%tblLaneCap].Hit(tln, c.tick, false) {
			c.coast = p.cacheSlow(c.tick, &tl[(tln-tl0)%tblLaneCap], ta, false, tblSh, scattered)
		}
		td[d]++
		srcA += wordBytes
	}
	p.settle(c, n*opsPerElem)
}

// PermuteStream charges a radix permutation pass: per element, one
// sequential key read from src (srcSh), the digit extraction, one
// dependent read of tbl[digit] (tblSh, the position-counter access), the
// position bump pos[digit]++, the key's scattered write to
// dst[pos] (dstSh), and opsPerElem busy operations. It is the batched
// equivalent of sorts' permutePass inner loop.
func (p *Proc) PermuteStream(src, dst *Array[uint32], lo, n int,
	shift uint, mask uint32, tbl *Array[int32], pos []int64,
	srcSh, tblSh, dstSh Sharing, opsPerElem int) {
	if n <= 0 {
		return
	}
	dd := dst.Data
	srcA, tblBase, dstBase := src.base+Addr(lo*wordBytes), tbl.base, dst.base
	sT, tT := &p.sTLB[0], &p.sTLB[1]
	sL := &p.sLane
	p.tlb.AttachLane(sT)
	p.tlb.AttachLane(tT)
	sL.Reset()
	g := p.geom()
	tl, tl0 := p.tblScratch(g, tblBase, int(mask)+1)
	bk, perLine, dl0 := p.dstScratch(g, dstBase, pos, n, int(mask)+1)
	c := p.regs()
	for _, key := range src.Data[lo : lo+n] {
		c.tick++
		if srcA < c.coast {
			sL.Stamp(c.tick)
		} else {
			c.coast = g.runEnd(srcA)
			if !sT.Hit(g.page(srcA)) {
				c.coast = p.tlbSlow(sT, srcA)
			}
			if !sL.Hit(g.line(srcA), c.tick, false) {
				c.coast = p.cacheSlow(c.tick, sL, srcA, false, srcSh, streamed)
			}
		}
		d := int(key >> shift & mask)
		ta := tblBase + Addr(d*wordBytes)
		c.tick++
		if !tT.Hit(g.page(ta)) {
			c.coast = p.tlbSlow(tT, ta)
		}
		if tln := g.line(ta); !tl[(tln-tl0)%tblLaneCap].Hit(tln, c.tick, false) {
			c.coast = p.cacheSlow(c.tick, &tl[(tln-tl0)%tblLaneCap], ta, false, tblSh, scattered)
		}
		at := pos[d]
		pos[d]++
		dd[at] = key
		da := dstBase + Addr(at*wordBytes)
		li := d
		if perLine {
			li = int(g.line(da) - dl0)
		}
		b := &bk[li]
		c.tick++
		if !b.dstT.Hit(g.page(da)) {
			c.coast = p.tlbSlow(&b.dstT, da)
		}
		if !b.dst.Hit(g.line(da), c.tick, true) {
			c.coast = p.cacheSlow(c.tick, &b.dst, da, true, dstSh, streamed)
		}
		srcA += wordBytes
	}
	p.settle(c, n*opsPerElem)
}

// A SeqCursor charges the accesses of one sequential stream whose
// elements are consumed on demand rather than in a closed loop — the
// multiway merge's run heads and output head. Each cursor carries its
// own cache and TLB lane, so several concurrently open cursors (one per
// merge run) each keep their hot line and page. Open with
// Array.OpenCursor; there is nothing to close.
type SeqCursor struct {
	p        *Proc
	base     Addr
	elemSize int
	sh       Sharing
	write    bool
	lane     cache.Lane
	tlb      cache.TLBLane
}

// OpenCursor binds cur to this array's address range as a sequential
// stream of reads (write=false) or writes. Accesses charge like access
// at MissOverlap.
func (a *Array[T]) OpenCursor(cur *SeqCursor, p *Proc, write bool, sh Sharing) {
	cur.p = p
	cur.base = a.base
	cur.elemSize = a.elemSize
	cur.sh = sh
	cur.write = write
	cur.lane.Reset()
	p.tlb.AttachLane(&cur.tlb)
}

// Access charges one access of element i through the cursor's lanes: the
// kernels' step on the processor's own counters.
func (cur *SeqCursor) Access(i int) {
	p := cur.p
	a := cur.base + Addr(i*cur.elemSize)
	if !p.tlb.LaneHit(&cur.tlb, a) {
		p.tlbSlow(&cur.tlb, a)
	}
	if !p.cache.LaneHit(&cur.lane, a, cur.write) {
		p.cacheSlow(p.cache.Accesses(), &cur.lane, a, cur.write, cur.sh, streamed)
	}
}

// CloseCursors does nothing: cursors hold no registration to undo. It
// remains for the frozen cmd/bench probes, its only caller.
func (p *Proc) CloseCursors() {}

// LoadRangeWith charges a sequential read of elements [lo, hi) with
// opsPerElem busy operations interleaved per element — the batched
// equivalent of `for i := lo; i < hi; i++ { access(Addr(i), false, sh,
// MissOverlap); Compute }`.
// Unlike LoadRange, which touches each cache line once (a block
// transfer), this charges one access per element.
func (a *Array[T]) LoadRangeWith(p *Proc, lo, hi int, sh Sharing, opsPerElem int) {
	p.seqStream(a.Addr(lo), a.elemSize, hi-lo, false, sh, opsPerElem)
}

// GatherLoad charges dependent reads of elements idx[0..] with
// opsPerElem busy operations per element. Gathered reads are dependent
// accesses, so misses do not overlap.
func (a *Array[T]) GatherLoad(p *Proc, idx []int64, sh Sharing, opsPerElem int) {
	p.idxStream(a.base, a.elemSize, idx, false, scattered, sh, opsPerElem)
}

// ScatterStore charges scattered writes of elements idx[0..] with
// opsPerElem busy operations per element. Stores post through the write
// buffer, so even scattered write misses overlap like streams (at
// MissOverlap); sustained scatter is throttled by the contention
// model, not by per-store round trips.
func (a *Array[T]) ScatterStore(p *Proc, idx []int64, sh Sharing, opsPerElem int) {
	p.idxStream(a.base, a.elemSize, idx, true, streamed, sh, opsPerElem)
}
