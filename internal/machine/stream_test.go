package machine

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// streamTestState bundles one machine plus the arrays the equivalence
// workload runs over, so the stream side and the per-element side
// operate on structurally identical worlds.
type streamTestState struct {
	m    *Machine
	p    *Proc
	keys *Array[uint32]
	dst  *Array[uint32]
	hist *Array[int32]
}

func newStreamTestState(t *testing.T, cfg Config) *streamTestState {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := &streamTestState{
		m:    m,
		keys: NewArrayBlocked[uint32](m, "keys", 1<<13),
		dst:  NewArrayBlocked[uint32](m, "dst", 1<<13),
		hist: NewArrayOnProc[int32](m, "hist", 256, 0),
	}
	s.p = m.Proc(0)
	s.p.resetClock()
	rng := rand.New(rand.NewSource(7))
	for i := range s.keys.Data {
		s.keys.Data[i] = rng.Uint32()
	}
	return s
}

// check asserts both worlds are bit-identical: virtual clock, full
// ProcStats (time breakdown, phase accumulators, traffic, counter
// snapshot), and the raw cache/TLB counters.
func (s *streamTestState) check(t *testing.T, ref *streamTestState, step string) {
	t.Helper()
	if s.p.clock != ref.p.clock {
		t.Fatalf("%s: clock stream=%v ref=%v", step, s.p.clock, ref.p.clock)
	}
	if a, b := s.p.snapshot(), ref.p.snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats diverge\nstream: %+v\nref:    %+v", step, a, b)
	}
	if a, b := s.p.cache.Stats(), ref.p.cache.Stats(); a != b {
		t.Fatalf("%s: cache counters stream=%+v ref=%+v", step, a, b)
	}
	if a, b := s.p.tlb.Stats(), ref.p.tlb.Stats(); a != b {
		t.Fatalf("%s: TLB counters stream=%+v ref=%+v", step, a, b)
	}
	if !reflect.DeepEqual(s.dst.Data, ref.dst.Data) ||
		!reflect.DeepEqual(s.hist.Data, ref.hist.Data) {
		t.Fatalf("%s: data results diverge", step)
	}
}

// streamRound is one randomly drawn step of the equivalence workload.
type streamRound struct {
	kind      int // which kernel, 0..6
	lo, cnt   int
	ops       int
	shift     uint
	idx       []int64 // gather/scatter indices
	pos       []int64 // permutation start positions
	scattered []int   // plain accesses issued after the kernel
}

func drawStreamRound(rng *rand.Rand, kind, n int) streamRound {
	r := streamRound{
		kind:  kind,
		lo:    rng.Intn(n - 600),
		cnt:   1 + rng.Intn(500),
		ops:   rng.Intn(9),
		shift: uint(rng.Intn(3) * 8),
		idx:   make([]int64, 512),
		pos:   make([]int64, 256),
	}
	for i := range r.idx {
		r.idx[i] = int64(rng.Intn(n))
	}
	for i := range r.pos {
		r.pos[i] = int64((i * 32) % n)
	}
	for i := 0; i < 8; i++ {
		r.scattered = append(r.scattered, rng.Intn(n))
	}
	return r
}

// viaKernels charges round r through the batched kernels, cursors and
// block walks.
func (s *streamTestState) viaKernels(r streamRound) {
	p, lo, cnt, ops := s.p, r.lo, r.cnt, r.ops
	switch r.kind {
	case 0: // sequential load sweep
		s.keys.LoadRangeWith(p, lo, lo+cnt, SharedRead, ops)
	case 1: // sequential store sweep
		s.dst.StoreRangeWith(p, lo, lo+cnt, Private, ops)
	case 2: // gather + scatter over random indices
		s.keys.GatherLoad(p, r.idx, SharedRead, ops)
		s.dst.ScatterStore(p, r.idx, ConflictWrite, ops)
	case 3: // radix counting pass
		clear(s.hist.Data)
		p.CountStream(s.keys, lo, cnt, SharedRead, r.shift, 255, s.hist, Private, ops)
	case 4: // radix permutation pass (positions spread over dst)
		pos := append([]int64(nil), r.pos...)
		p.PermuteStream(s.keys, s.dst, lo, cnt, r.shift, 255, s.hist, pos,
			SharedRead, Private, ConflictWrite, ops)
	case 5: // interleaved cursors (the multiway-merge shape)
		var sr, sw SeqCursor
		s.keys.OpenCursor(&sr, p, false, SharedRead)
		s.dst.OpenCursor(&sw, p, true, Private)
		for i := 0; i < cnt; i++ {
			sr.Access(lo + i)
			sw.Access(lo + cnt - 1 - i)
		}
		p.CloseCursors()
	case 6: // block walks: unaligned start, page-crossing and sub-line lengths
		s.keys.LoadRange(p, lo, lo+cnt, SharedRead)
		s.dst.StoreRange(p, lo+1, lo+1+cnt%7, Private)
	}
	for _, i := range r.scattered {
		s.keys.Load(p, i, SharedRead)
	}
}

// viaElements charges round r through the per-element path, the
// definition the kernels must match.
func (s *streamTestState) viaElements(r streamRound) {
	p, lo, cnt, ops := s.p, r.lo, r.cnt, r.ops
	switch r.kind {
	case 0:
		for i := lo; i < lo+cnt; i++ {
			p.LoadSeq(s.keys.Addr(i), SharedRead)
			p.Compute(ops)
		}
	case 1:
		for i := lo; i < lo+cnt; i++ {
			p.StoreSeq(s.dst.Addr(i), Private)
			p.Compute(ops)
		}
	case 2:
		for _, ix := range r.idx {
			p.Load(s.keys.Addr(int(ix)), SharedRead)
			p.Compute(ops)
		}
		for _, ix := range r.idx {
			p.Store(s.dst.Addr(int(ix)), ConflictWrite)
			p.Compute(ops)
		}
	case 3:
		clear(s.hist.Data)
		for i := lo; i < lo+cnt; i++ {
			p.LoadSeq(s.keys.Addr(i), SharedRead)
			d := int(s.keys.Data[i] >> r.shift & 255)
			p.Load(s.hist.Addr(d), Private)
			s.hist.Data[d]++
			p.Compute(ops)
		}
	case 4:
		pos := append([]int64(nil), r.pos...)
		for i := lo; i < lo+cnt; i++ {
			p.LoadSeq(s.keys.Addr(i), SharedRead)
			k := s.keys.Data[i]
			d := int(k >> r.shift & 255)
			p.Load(s.hist.Addr(d), Private)
			at := pos[d]
			pos[d]++
			s.dst.Data[at] = k
			p.Store(s.dst.Addr(int(at)), ConflictWrite)
			p.Compute(ops)
		}
	case 5:
		for i := 0; i < cnt; i++ {
			p.LoadSeq(s.keys.Addr(lo+i), SharedRead)
			p.StoreSeq(s.dst.Addr(lo+cnt-1-i), Private)
		}
	case 6:
		s.perLine(s.keys, lo, lo+cnt, false, SharedRead)
		s.perLine(s.dst, lo+1, lo+1+cnt%7, true, Private)
	}
	for _, i := range r.scattered {
		s.keys.Load(p, i, SharedRead)
	}
}

// perLine is the block walk spelled out: one LoadSeq/StoreSeq per cache
// line overlapping elements [lo, hi).
func (s *streamTestState) perLine(a *Array[uint32], lo, hi int, write bool, sh Sharing) {
	if hi <= lo {
		return
	}
	line := Addr(s.m.cfg.Cache.LineSize)
	for la := a.Addr(lo) &^ (line - 1); la < a.Addr(hi); la += line {
		if write {
			s.p.StoreSeq(la, sh)
		} else {
			s.p.LoadSeq(la, sh)
		}
	}
}

const streamRoundKinds = 7

// TestStreamEquivalence drives random workloads through the batched
// stream kernels, cursors and block walks on one machine and through the
// equivalent per-element loops on an identical second machine, asserting
// bit-identical simulated state after every step: same clock (float
// addition order included), same breakdowns, same cache/TLB replacement
// decisions and counters. The per-element path is the definition (plain
// probes, no lanes); this is the equivalence contract of DESIGN.md §13
// checked end to end on live machines, on the NUMA model and on the
// flat-memory ablation. FuzzAccessOracle covers the lane primitives
// underneath against the reference models.
func TestStreamEquivalence(t *testing.T) {
	flat := Origin2000Scaled(2)
	flat.FlatMemory = true
	for name, cfg := range map[string]Config{"numa": Origin2000Scaled(2), "flatmem": flat} {
		t.Run(name, func(t *testing.T) {
			sv := newStreamTestState(t, cfg) // kernel side
			rv := newStreamTestState(t, cfg) // per-element side
			rng := rand.New(rand.NewSource(99))
			for round := 0; round < 28; round++ {
				r := drawStreamRound(rng, round%streamRoundKinds, sv.keys.Len())
				sv.viaKernels(r)
				rv.viaElements(r)
				sv.check(t, rv, "round")
			}
		})
	}
}

// TestBlockWalkEquivalence pins the block walk's edge geometry against
// the per-line loop: an unaligned start, a range shorter than a line, a
// range that ends exactly on a line boundary, ranges crossing one and
// several pages, and an empty range.
func TestBlockWalkEquivalence(t *testing.T) {
	cfg := Origin2000Scaled(2)
	perLine := cfg.Cache.LineSize / 4 // uint32 elements per line
	perPage := cfg.TLB.PageSize / 4
	sv := newStreamTestState(t, cfg)
	rv := newStreamTestState(t, cfg)
	for _, c := range []struct {
		name   string
		lo, hi int
	}{
		{"unaligned start", 5, 5 + 3*perLine},
		{"sub-line", perLine + 3, perLine + 9},
		{"ends on a line boundary", 7, 4 * perLine},
		{"crosses a page", perPage - 5, perPage + 5},
		{"crosses pages", perPage / 2, 3*perPage + 11},
		{"empty", 40, 40},
	} {
		sv.keys.LoadRange(sv.p, c.lo, c.hi, SharedRead)
		sv.dst.StoreRange(sv.p, c.lo, c.hi, ConflictWrite)
		rv.perLine(rv.keys, c.lo, c.hi, false, SharedRead)
		rv.perLine(rv.dst, c.lo, c.hi, true, ConflictWrite)
		sv.check(t, rv, c.name)
	}
	if sv.p.tlb.Stats().Misses == 0 || sv.p.cache.Stats().Misses == 0 {
		t.Error("workload never missed; the comparison is vacuous")
	}
}

// TestStreamEquivalenceParanoid is the full-paranoid twin: the same
// random kernel/cursor/block workload runs on a Paranoid machine, whose
// slow steps shadow every access of the kernels' own loops against the
// reference models (the lanes stay empty), and on a plain machine. The
// checker must stay clean, the reference models must have seen every
// access, and the simulated state must be bit-identical — the shadow
// observes, it never charges.
func TestStreamEquivalenceParanoid(t *testing.T) {
	pcfg := Origin2000Scaled(2)
	pcfg.Paranoid = true
	pv := newStreamTestState(t, pcfg)
	sv := newStreamTestState(t, Origin2000Scaled(2))
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 28; round++ {
		r := drawStreamRound(rng, round%streamRoundKinds, sv.keys.Len())
		pv.viaKernels(r)
		sv.viaKernels(r)
		pv.check(t, sv, "round")
	}
	if err := pv.m.Checker().Err(); err != nil {
		t.Fatalf("paranoid kernels report violations: %v", err)
	}
	pc := pv.p.pc
	if got, want := pc.cache.Counts().Accesses, pv.p.cache.Stats().Accesses; got != want {
		t.Errorf("reference cache saw %d of %d accesses", got, want)
	}
	if got, want := pc.tlb.Counts().Accesses, pv.p.tlb.Stats().Accesses; got != want {
		t.Errorf("reference TLB saw %d of %d accesses", got, want)
	}
}

// TestStreamKernelsZeroAlloc pins the O(1)-allocation contract of the
// stream engine: once a processor's lane scratch has grown to the radix
// width (the warm-up run AllocsPerRun performs), every kernel call and
// cursor access allocates nothing. This is the CI allocation-regression
// guard for the hot simulation paths.
func TestStreamKernelsZeroAlloc(t *testing.T) {
	m := testMachine(t, 2)
	keys := NewArrayBlocked[uint32](m, "keys", 1<<14)
	dst := NewArrayBlocked[uint32](m, "dst", 1<<14)
	hist := NewArrayOnProc[int32](m, "hist", 256, 0)
	p := m.Proc(0)
	p.resetClock()
	idx := []int64{3, 99, 7, 4000, 7, 8, 9000, 2}
	pos := make([]int64, 256)
	// The cursor lives outside the loop: AttachLane registers its TLB
	// lane by address, so a cursor declared inside would escape and
	// heap-allocate per call. Real callers (the multiway merge) hold
	// their cursors in a slice allocated once per merge.
	var cur SeqCursor
	allocs := testing.AllocsPerRun(50, func() {
		keys.LoadRangeWith(p, 0, 512, SharedRead, 2)
		dst.StoreRangeWith(p, 0, 512, Private, 1)
		keys.LoadRange(p, 0, 512, SharedRead)
		keys.GatherLoad(p, idx, SharedRead, 1)
		dst.ScatterStore(p, idx, ConflictWrite, 1)
		p.CountStream(keys, 0, 512, SharedRead, 0, 255, hist, Private, 8)
		for i := range pos {
			pos[i] = int64(i * 16)
		}
		p.PermuteStream(keys, dst, 0, 512, 0, 255, hist, pos,
			SharedRead, Private, ConflictWrite, 13)
		keys.OpenCursor(&cur, p, false, SharedRead)
		for i := 0; i < 64; i++ {
			cur.Access(i)
		}
		p.CloseCursors()
	})
	if allocs != 0 {
		t.Errorf("stream kernels allocate %.1f/op in steady state, want 0", allocs)
	}
}

// TestArenaReuse proves Release recycles array backing memory: after a
// machine releases its slabs, a second machine allocating the same
// array footprint gets the same backing slab back from the pool (LIFO),
// and its contents arrive zeroed despite the first machine's writes.
func TestArenaReuse(t *testing.T) {
	m1 := testMachine(t, 2)
	a1 := NewArrayBlocked[uint32](m1, "k", 1<<12)
	for i := range a1.Data {
		a1.Data[i] = 0xDEADBEEF
	}
	p1 := unsafe.Pointer(&a1.Data[0])
	m1.Release()

	m2 := testMachine(t, 2)
	a2 := NewArrayBlocked[uint32](m2, "k", 1<<12)
	if unsafe.Pointer(&a2.Data[0]) != p1 {
		t.Error("released slab was not reused for an identical allocation")
	}
	for i, v := range a2.Data {
		if v != 0 {
			t.Fatalf("reused slab not zeroed at %d: %#x", i, v)
		}
	}
	m2.Release()
}

// TestGrowAmortized asserts Grow's capacity doubling: growing an array
// one element at a time reallocates O(log n) times, not O(n) times, and
// in-capacity growth neither moves the backing array nor loses data.
func TestGrowAmortized(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 1<<16, 0)
	reallocs := 0
	var last *uint32
	for n := 1; n <= 1<<14; n++ {
		a.Grow(n)
		a.Data[n-1] = uint32(n)
		if &a.Data[0] != last {
			reallocs++
			last = &a.Data[0]
		}
	}
	if reallocs > 16 {
		t.Errorf("growing to 2^14 one element at a time reallocated %d times, want O(log n)", reallocs)
	}
	for n := 1; n <= 1<<14; n++ {
		if a.Data[n-1] != uint32(n) {
			t.Fatalf("Grow lost element %d", n-1)
		}
	}
}

// Scatter-stream micro-benchmarks: the cache-hit regime (a footprint
// the cache holds), the miss regime (every access a fresh line), and
// the run-coalesced regime (sorted indices, so per-bucket lanes see
// same-line runs). ns/op is per scattered element.
func benchScatter(b *testing.B, idx []int64) {
	m, err := New(Origin2000Scaled(4))
	if err != nil {
		b.Fatal(err)
	}
	arr := NewArrayBlocked[uint32](m, "dst", 1<<22)
	b.ResetTimer()
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		for i := 0; i < b.N; i += len(idx) {
			arr.ScatterStore(p, idx, ConflictWrite, 1)
		}
	})
}

func BenchmarkScatterStreamHit(b *testing.B) {
	idx := make([]int64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range idx {
		idx[i] = int64(rng.Intn(4096)) // 16 KB footprint, cache-resident
	}
	benchScatter(b, idx)
}

func BenchmarkScatterStreamMiss(b *testing.B) {
	idx := make([]int64, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range idx {
		idx[i] = int64(rng.Intn(1 << 22)) // 16 MB footprint, always missing
	}
	benchScatter(b, idx)
}

func BenchmarkScatterStreamCoalesced(b *testing.B) {
	idx := make([]int64, 4096)
	for i := range idx {
		idx[i] = int64(1<<20 + i) // sequential: 16-element same-line runs
	}
	benchScatter(b, idx)
}
