package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
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
	// mask is the radix kernels' digit mask: hist has mask+1 counters.
	mask uint32
}

// histShape is the radix kernels' histogram in an equivalence run:
// mask+1 counters starting off counters past a line boundary.
type histShape struct {
	name string
	mask uint32
	off  int
}

// histShapes are the histograms the equivalence tests run on: the
// radix-8 table of the sorts; a radix-11 table, 64 lines of 128 bytes
// with a lane each; a radix-16 table, whose 2048 lines share the
// processor's tblLaneCap lanes; and a radix-8 table whose base is not
// line-aligned, so it spans one line more.
var histShapes = []histShape{
	{"hist255", 255, 0},
	{"hist2047", 2047, 0},
	{"hist65535", 65535, 0},
	{"hist255-unaligned", 255, 3},
}

func newStreamTestState(t *testing.T, cfg Config, h histShape) *streamTestState {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hist := NewArrayOnProc[int32](m, "hist", int(h.mask)+1+h.off, 0)
	hist.Data = hist.Data[h.off:]
	hist.base += Addr(h.off * wordBytes)
	s := &streamTestState{
		m:    m,
		keys: NewArrayBlocked[uint32](m, "keys", 1<<13),
		dst:  NewArrayBlocked[uint32](m, "dst", 1<<13),
		hist: hist,
		mask: h.mask,
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
	pos       []int64 // permutation start positions, one per digit
	scattered []int   // plain accesses issued after the kernel
}

func drawStreamRound(rng *rand.Rand, kind, n int, mask uint32) streamRound {
	r := streamRound{
		kind:  kind,
		lo:    rng.Intn(n - 600),
		cnt:   1 + rng.Intn(500),
		ops:   rng.Intn(9),
		shift: uint(rng.Intn(3) * 8),
		idx:   make([]int64, 512),
	}
	for i := range r.idx {
		r.idx[i] = int64(rng.Intn(n))
	}
	if kind == 4 {
		// Spread starts take the scatter's per-digit lanes; packed ones
		// (a bucket-major run at a random base, buckets overlapping when
		// one outgrows its share, which both sides write alike) span
		// fewer lines than there are digits and take per-line lanes.
		r.pos = make([]int64, mask+1)
		packed, base := rng.Intn(2) == 0, rng.Intn(n-2*r.cnt)
		for i := range r.pos {
			if packed {
				r.pos[i] = int64(base + i*r.cnt/len(r.pos))
			} else {
				r.pos[i] = int64((i * 32) % n)
			}
		}
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
		p.seqStream(s.dst.Addr(lo), 4, cnt, true, Private, ops)
	case 2: // gather + scatter over random indices
		s.keys.GatherLoad(p, r.idx, SharedRead, ops)
		s.dst.ScatterStore(p, r.idx, ConflictWrite, ops)
	case 3: // radix counting pass
		clear(s.hist.Data)
		p.CountStream(s.keys, lo, cnt, SharedRead, r.shift, s.mask, s.hist, Private, ops)
	case 4: // radix permutation pass (positions spread over dst, or packed)
		pos := append([]int64(nil), r.pos...)
		p.PermuteStream(s.keys, s.dst, lo, cnt, r.shift, s.mask, s.hist, pos,
			SharedRead, Private, ConflictWrite, ops)
	case 5: // interleaved cursors (the multiway-merge shape)
		var sr, sw SeqCursor
		s.keys.OpenCursor(&sr, p, false, SharedRead)
		s.dst.OpenCursor(&sw, p, true, Private)
		for i := 0; i < cnt; i++ {
			sr.Access(lo + i)
			sw.Access(lo + cnt - 1 - i)
		}
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
	ov := streamed
	switch r.kind {
	case 0:
		for i := lo; i < lo+cnt; i++ {
			p.access(s.keys.Addr(i), false, SharedRead, ov)
			p.Compute(ops)
		}
	case 1:
		for i := lo; i < lo+cnt; i++ {
			p.access(s.dst.Addr(i), true, Private, ov)
			p.Compute(ops)
		}
	case 2:
		for _, ix := range r.idx {
			p.Load(s.keys.Addr(int(ix)), SharedRead)
			p.Compute(ops)
		}
		for _, ix := range r.idx {
			p.access(s.dst.Addr(int(ix)), true, ConflictWrite, ov)
			p.Compute(ops)
		}
	case 3:
		clear(s.hist.Data)
		for i := lo; i < lo+cnt; i++ {
			p.access(s.keys.Addr(i), false, SharedRead, ov)
			d := int(s.keys.Data[i] >> r.shift & s.mask)
			p.Load(s.hist.Addr(d), Private)
			s.hist.Data[d]++
			p.Compute(ops)
		}
	case 4:
		pos := append([]int64(nil), r.pos...)
		for i := lo; i < lo+cnt; i++ {
			p.access(s.keys.Addr(i), false, SharedRead, ov)
			k := s.keys.Data[i]
			d := int(k >> r.shift & s.mask)
			p.Load(s.hist.Addr(d), Private)
			at := pos[d]
			pos[d]++
			s.dst.Data[at] = k
			p.access(s.dst.Addr(int(at)), true, ConflictWrite, ov)
			p.Compute(ops)
		}
	case 5:
		for i := 0; i < cnt; i++ {
			p.access(s.keys.Addr(lo+i), false, SharedRead, ov)
			p.access(s.dst.Addr(lo+cnt-1-i), true, Private, ov)
		}
	case 6:
		s.perLine(s.keys, lo, lo+cnt, false, SharedRead)
		s.perLine(s.dst, lo+1, lo+1+cnt%7, true, Private)
	}
	for _, i := range r.scattered {
		s.keys.Load(p, i, SharedRead)
	}
}

// perLine is the block walk spelled out: one sequential access per
// cache line overlapping elements [lo, hi).
func (s *streamTestState) perLine(a *Array[uint32], lo, hi int, write bool, sh Sharing) {
	if hi <= lo {
		return
	}
	line := Addr(s.m.cfg.Cache.LineSize)
	for la := a.Addr(lo) &^ (line - 1); la < a.Addr(hi); la += line {
		s.p.access(la, write, sh, streamed)
	}
}

const streamRoundKinds = 7

// streamRounds is how many random rounds each equivalence run draws: ten
// of every kind.
const streamRounds = 10 * streamRoundKinds

// streamGeometry is one machine shape the equivalence tests run on.
// minCacheMiss/minTLBMiss are the miss rates the workload must exceed on
// it, so a geometry meant to make the streams evict each other cannot
// pass vacuously.
type streamGeometry struct {
	name                     string
	cache                    cache.Config
	tlb                      cache.TLBConfig
	flat                     bool
	minCacheMiss, minTLBMiss float64
}

// streamGeometries are the preset plus shapes small enough that the
// histogram and scatter streams evict the source sweep's line and page
// in the middle of a line run (32 KB arrays, a 1 KB histogram): the case
// the kernels' untested run must notice through the slow step that did
// the evicting.
func streamGeometries() []streamGeometry {
	preset := Origin2000Scaled(2)
	return []streamGeometry{
		{name: "numa", cache: preset.Cache, tlb: preset.TLB},
		{name: "flatmem", cache: preset.Cache, tlb: preset.TLB, flat: true},
		{name: "cache512-direct", cache: cache.Config{Size: 512, LineSize: 128, Ways: 1},
			tlb: cache.TLBConfig{Entries: 64, PageSize: 1 << 10}, minCacheMiss: 0.25},
		{name: "cache1k-2way", cache: cache.Config{Size: 1 << 10, LineSize: 64, Ways: 2},
			tlb: cache.TLBConfig{Entries: 64, PageSize: 1 << 10}, minCacheMiss: 0.25},
		{name: "tlb2", cache: preset.Cache,
			tlb: cache.TLBConfig{Entries: 2, PageSize: 1 << 10}, minTLBMiss: 0.25},
		{name: "cache2k-4way-tlb2x512", cache: cache.Config{Size: 2 << 10, LineSize: 64, Ways: 4},
			tlb: cache.TLBConfig{Entries: 2, PageSize: 512}, minCacheMiss: 0.25, minTLBMiss: 0.25},
		{name: "cache2k-4way-tlb3x256", cache: cache.Config{Size: 2 << 10, LineSize: 128, Ways: 4},
			tlb: cache.TLBConfig{Entries: 3, PageSize: 256}, minCacheMiss: 0.25, minTLBMiss: 0.25},
		// Pages smaller than lines: a line run ends at the page boundary.
		{name: "cache2k-4way-tlb4x128", cache: cache.Config{Size: 2 << 10, LineSize: 256, Ways: 4},
			tlb: cache.TLBConfig{Entries: 4, PageSize: 128}, minCacheMiss: 0.25, minTLBMiss: 0.25},
	}
}

func (g streamGeometry) config() Config {
	cfg := Origin2000Scaled(2)
	cfg.Cache, cfg.TLB, cfg.FlatMemory = g.cache, g.tlb, g.flat
	return cfg
}

// checkMissRates fails the test if the finished run on s missed less
// often than the geometry demands.
func (g streamGeometry) checkMissRates(t *testing.T, s *streamTestState) {
	t.Helper()
	if r := s.p.cache.Stats().MissRate(); r <= g.minCacheMiss && g.minCacheMiss > 0 {
		t.Errorf("cache miss rate %.2f, want > %.2f: the geometry is not exercised", r, g.minCacheMiss)
	}
	if r := s.p.tlb.Stats().MissRate(); r <= g.minTLBMiss && g.minTLBMiss > 0 {
		t.Errorf("TLB miss rate %.2f, want > %.2f: the geometry is not exercised", r, g.minTLBMiss)
	}
}

// TestStreamEquivalence drives random workloads through the batched
// stream kernels, cursors and block walks on one machine and through the
// equivalent per-element loops on an identical second machine, asserting
// bit-identical simulated state after every step: same clock (float
// addition order included), same breakdowns, same cache/TLB replacement
// decisions and counters. The per-element path is the definition (plain
// probes, no lanes); this is the equivalence contract of DESIGN.md §13
// checked end to end on live machines: on the NUMA model, on the
// flat-memory ablation, and on caches and TLBs of a few entries, where a
// kernel's streams keep evicting each other's lines and pages; each with
// every histogram shape. FuzzAccessOracle covers the lane primitives
// underneath against the reference models.
func TestStreamEquivalence(t *testing.T) {
	for _, g := range streamGeometries() {
		t.Run(g.name, func(t *testing.T) {
			for _, h := range histShapes {
				t.Run(h.name, func(t *testing.T) {
					sv := newStreamTestState(t, g.config(), h) // kernel side
					rv := newStreamTestState(t, g.config(), h) // per-element side
					rng := rand.New(rand.NewSource(99))
					for round := 0; round < streamRounds; round++ {
						r := drawStreamRound(rng, round%streamRoundKinds, sv.keys.Len(), h.mask)
						sv.viaKernels(r)
						rv.viaElements(r)
						sv.check(t, rv, "round")
					}
					g.checkMissRates(t, sv)
				})
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
	sv := newStreamTestState(t, cfg, histShapes[0])
	rv := newStreamTestState(t, cfg, histShapes[0])
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
// random kernel/cursor/block workload runs, on every geometry, on a
// Paranoid machine, whose slow steps shadow every access of the kernels'
// own loops against the reference models (the lanes stay empty, so no
// run of untested accesses ever opens), and on a plain machine, with
// every histogram shape. The checker must stay clean, the reference
// models must have seen every access, and the simulated state must be
// bit-identical — the shadow observes, it never charges.
func TestStreamEquivalenceParanoid(t *testing.T) {
	for _, g := range streamGeometries() {
		t.Run(g.name, func(t *testing.T) {
			for _, h := range histShapes {
				t.Run(h.name, func(t *testing.T) {
					pcfg := g.config()
					pcfg.ParanoidSampleEvery = 1
					pv := newStreamTestState(t, pcfg, h)
					sv := newStreamTestState(t, g.config(), h)
					rng := rand.New(rand.NewSource(99))
					for round := 0; round < streamRounds; round++ {
						r := drawStreamRound(rng, round%streamRoundKinds, sv.keys.Len(), h.mask)
						pv.viaKernels(r)
						sv.viaKernels(r)
						pv.check(t, sv, "round")
					}
					g.checkMissRates(t, pv)
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
				})
			}
		})
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
	allocs := testing.AllocsPerRun(50, func() {
		keys.LoadRangeWith(p, 0, 512, SharedRead, 2)
		p.seqStream(dst.Addr(0), 4, 512, true, Private, 1)
		keys.LoadRange(p, 0, 512, SharedRead)
		keys.GatherLoad(p, idx, SharedRead, 1)
		dst.ScatterStore(p, idx, ConflictWrite, 1)
		p.CountStream(keys, 0, 512, SharedRead, 0, 255, hist, Private, 8)
		for i := range pos {
			pos[i] = int64(i * 16)
		}
		// One cache lane and one TLB lane per scatter bucket or line,
		// from the processor's retained scratch.
		p.PermuteStream(keys, dst, 0, 512, 0, 255, hist, pos,
			SharedRead, Private, ConflictWrite, 13)
		// A cursor is a plain value: nothing holds its address, so one
		// declared here stays on the stack.
		var cur SeqCursor
		keys.OpenCursor(&cur, p, false, SharedRead)
		for i := 0; i < 64; i++ {
			cur.Access(i)
		}
	})
	if allocs != 0 {
		t.Errorf("stream kernels allocate %.1f/op in steady state, want 0", allocs)
	}
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
	mustRun(b, m, func(p *Proc) {
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

// Radix-kernel micro-benchmarks. ns/op is per key. A kernel is timed in
// up to three regimes: one processor's 1 K-key partition of a 64K-key,
// 64P cell, where setting up the kernel's lanes is a large share of a
// call; one processor's 64 K-key partition of a 4M-key, 64P cell, as
// large as the cache and the TLB's reach, so the lanes resolve all but
// one access per line; and a 1 M-key sweep sixteen times either, where
// the scatter's slow steps dominate.
func benchRadixKernel(b *testing.B, n int, kernel func(p *Proc, cnt int, src, dst *Array[uint32], tbl *Array[int32], pos []int64)) {
	const buckets = 256
	cfg := Origin2000Scaled(4)
	cfg.TLB.PageSize = 4 << 10 // the harness's page policy for these sizes
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()
	src := NewArrayBlocked[uint32](m, "src", 4*n)
	dst := NewArrayBlocked[uint32](m, "dst", 4*n)
	tbl := NewArrayOnProc[int32](m, "tbl", buckets, 0)
	rng := rand.New(rand.NewSource(3))
	starts := make([]int64, buckets)
	for i := range src.Data[:n] {
		src.Data[i] = rng.Uint32()
		starts[src.Data[i]%buckets]++
	}
	var sum int64
	for d, c := range starts {
		starts[d], sum = sum, sum+c
	}
	pos := make([]int64, buckets)
	b.ResetTimer()
	mustRun(b, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		for i := 0; i < b.N; i += n {
			copy(pos, starts)
			kernel(p, min(n, b.N-i), src, dst, tbl, pos)
		}
	})
}

func BenchmarkCountStream(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"partition1k", 1 << 10}, {"partition64k", 64 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			benchRadixKernel(b, c.n, func(p *Proc, cnt int, src, _ *Array[uint32], tbl *Array[int32], _ []int64) {
				p.CountStream(src, 0, cnt, Private, 0, 255, tbl, Private, 1)
			})
		})
	}
}

func BenchmarkPermuteStream(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"partition1k", 1 << 10}, {"partition64k", 64 << 10}, {"spill1m", 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			benchRadixKernel(b, c.n, func(p *Proc, cnt int, src, dst *Array[uint32], tbl *Array[int32], pos []int64) {
				p.PermuteStream(src, dst, 0, cnt, 0, 255, tbl, pos, Private, Private, ConflictWrite, 1)
			})
		})
	}
}
