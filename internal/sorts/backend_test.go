package sorts

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// exchangeOracle is the host-computed outcome of one planned all-to-all,
// derived key by key from the histograms with no chunk arithmetic: walk
// the global output in order (bucket-major, then source-major) and drop
// every key into the destination partition that owns its position.
type exchangeOracle struct {
	procs int
	// dest[j] is what destination partition j must hold afterwards; a key
	// is identified by keyID(source, index in the source's send buffer).
	dest [][]uint32
	// runs[src][dst] counts the maximal contiguous runs src contributes
	// to dst: the number of transfers a chunk-granular exchange needs.
	runs [][]int
}

func keyID(src, idx int) uint32 { return uint32(src)<<20 | uint32(idx) }

// newOracle places every key of hists. parts are the destination
// partition starts (one trailing entry); nil means splitter-directed:
// bucket d is destination d's whole partition.
func newOracle(hists [][]int32, parts []int64) *exchangeOracle {
	P, B := len(hists), len(hists[0])
	nDest := B
	if parts != nil {
		nDest = len(parts) - 1
	}
	o := &exchangeOracle{procs: P, dest: make([][]uint32, nDest), runs: make([][]int, P)}
	for i := range o.runs {
		o.runs[i] = make([]int, nDest)
	}
	sent := make([]int, P) // keys of each source's bucket-major buffer consumed so far
	g := int64(0)
	for d := 0; d < B; d++ {
		for src := 0; src < P; src++ {
			last := -1
			for k := int32(0); k < hists[src][d]; k++ {
				dst := d
				if parts != nil {
					dst = sort.Search(nDest, func(j int) bool { return parts[j+1] > g })
				}
				o.dest[dst] = append(o.dest[dst], keyID(src, sent[src]))
				if dst != last {
					o.runs[src][dst]++
					last = dst
				}
				sent[src]++
				g++
			}
		}
	}
	return o
}

// remoteRuns counts the runs processor me exchanges with other
// processors: the ones it sends (outgoing) or the ones it receives.
func (o *exchangeOracle) remoteRuns(me int, outgoing bool) int {
	total := 0
	for peer := 0; peer < o.procs; peer++ {
		if peer == me {
			continue
		}
		if outgoing {
			total += o.runs[me][peer]
		} else {
			total += o.runs[peer][me]
		}
	}
	return total
}

// randomRow spreads total keys over b buckets in one of several shapes.
func randomRow(rng *rand.Rand, total, b, shape int) []int32 {
	row := make([]int32, b)
	switch shape % 3 {
	case 0: // uniform scatter
		for k := 0; k < total; k++ {
			row[rng.Intn(b)]++
		}
	case 1: // everything in one bucket
		row[rng.Intn(b)] = int32(total)
	default: // a few heavy buckets, many empty
		for k := 0; k < total; k++ {
			row[(rng.Intn(3)*5)%b]++
		}
	}
	return row
}

// contractMachine builds a P-processor machine; the fat-tree with one
// processor per node accepts any count, and makes every peer remote.
func contractMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	cfg := machine.Origin2000Scaled(procs)
	cfg.Topology.Kind = topology.KindFatTree
	cfg.Topology.ProcsPerNode = 1
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("machine.New(%d): %v", procs, err)
	}
	return m
}

// contractCase is one backend configuration under the contract test.
type contractCase struct {
	name string
	new  func() backend
	mpi  mpi.Engine
	// transfers is how many explicit transfers (messages, puts, gets)
	// processor me must initiate in an exchange the oracle describes.
	transfers func(o *exchangeOracle, me int, direct bool) int
}

func contractCases() []contractCase {
	none := func(*exchangeOracle, int, bool) int { return 0 }
	perPair := func(o *exchangeOracle, _ int, _ bool) int { return o.procs - 1 }
	// MPI sends one message per outgoing run; a splitter-directed
	// exchange is one message per pair even when the run is empty.
	perRun := func(o *exchangeOracle, me int, direct bool) int {
		if direct {
			return o.procs - 1
		}
		return o.remoteRuns(me, true)
	}
	return []contractCase{
		{name: "ccsas", new: func() backend { return &ccsasBackend{buffered: true} }, transfers: none},
		{name: "mpi-NEW", new: func() backend { return &mpiBackend{} }, transfers: perRun},
		{name: "mpi-SGI", new: func() backend { return &mpiBackend{} }, mpi: mpi.Staged, transfers: perRun},
		{name: "mpi-onemsg", new: func() backend { return &mpiBackend{oneMsg: true} }, transfers: perPair},
		{name: "shmem-get", new: func() backend { return &shmemBackend{} },
			transfers: func(o *exchangeOracle, me int, _ bool) int { return o.remoteRuns(me, false) }},
		{name: "shmem-put", new: func() backend { return &shmemBackend{put: true} },
			transfers: func(o *exchangeOracle, me int, _ bool) int { return o.remoteRuns(me, true) }},
	}
}

// runExchange drives one collective + planned exchange on every
// processor and checks the contract: every destination partition holds
// exactly the oracle's keys, each processor initiated exactly the
// transfers the plan calls for, and the contention window is closed.
func runExchange(t *testing.T, id string, c contractCase, m *machine.Machine, o *exchangeOracle,
	direct bool, from, to *partitioned, plan func(p *machine.Proc) *chunkPlan, be backend, ordered bool) {
	t.Helper()
	P := m.Procs()
	held := make([]int, P)
	transfers := make([]int64, P)
	m.ResetMemory()
	res := mustRun(t, m, func(p *machine.Proc) {
		pl := plan(p)
		before := p.Stats().Traffic.Messages
		held[p.ID] = be.exchange(p, pl, from, to, xfer{tag: 3})
		transfers[p.ID] = p.Stats().Traffic.Messages - before
		// Once exchange returns, a rank may rewrite a private send
		// buffer: no other rank may still be copying out of it (under
		// -race a backend that lets one do so fails here, and without it
		// the destinations below can come out wrong). CC-SAS's shared
		// arrays are read in place until the program's next barrier.
		if src := from.part[p.ID]; !from.shared {
			clear(src.arr.Data[src.lo : src.lo+src.n])
		}
		// With the window closed a remote charge is priced at face value.
		p.SetPhase("probe")
		p.RemoteMemNs(1000)
		p.SetPhase("")
	})
	for j := 0; j < P; j++ {
		want := o.dest[0]
		dst := to.part[j]
		if !to.shared || direct {
			want = o.dest[j]
		} else {
			// CC-SAS writes the shared output as one partition; slice out
			// processor j's block of it.
			want = want[dst.lo : dst.lo+dst.n]
		}
		if held[j] != len(want) {
			t.Errorf("%s: processor %d reports %d keys held, want %d", id, j, held[j], len(want))
			continue
		}
		got := append([]uint32(nil), dst.arr.Data[dst.lo:dst.lo+len(want)]...)
		if !ordered {
			// An unplaced plan packs runs in arrival order: same keys,
			// model-specific order.
			want = append([]uint32(nil), want...)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("%s: destination %d key %d = %#x, want %#x", id, j, k, got[k], want[k])
				break
			}
		}
		if w := int64(c.transfers(o, j, direct)); transfers[j] != w {
			t.Errorf("%s: processor %d initiated %d transfers, plan calls for %d", id, j, transfers[j], w)
		}
		if got := res.PerProc[j].Phases["probe"].RMem; got != 1000 {
			t.Errorf("%s: processor %d left the contention window open (1000 ns remote charge cost %v)", id, j, got)
		}
	}
}

// TestBackendContract runs the same randomly generated exchanges through
// all three backends in every configuration: a radix-style exchange into
// blocked partitions (histograms + exchange out of the send buffers) and
// splitter-directed ones, placed and unplaced (routes + exchange out of
// the key partitions) — on 2 to 9 processors, with empty rows, a rank
// that keeps everything, and a rank that receives everything.
func TestBackendContract(t *testing.T) {
	const buckets = 16
	for _, c := range contractCases() {
		for P := 2; P <= 9; P++ {
			for shape := 0; shape < 5; shape++ {
				rng := rand.New(rand.NewSource(int64(P*100 + shape)))
				n := 40*P + rng.Intn(P)
				if shape == 3 {
					n = P - 1 // fewer keys than processors: empty rows
				}
				cfg, _ := Config{Radix: 4, MPI: mpi.ConfigFor(c.mpi)}.resolved()
				id := fmt.Sprintf("%s P=%d shape=%d", c.name, P, shape)

				// Radix-style: row i spreads processor i's partition over
				// the digits. Shape 4 is the identity — every key already
				// in its owner's block, so nobody sends anything.
				if c.name != "shmem-put" { // a put needs a placed, splitter-directed plan
					hists := make([][]int32, P)
					for i := range hists {
						lo, hi := keys.Bounds(n, P, i)
						hists[i] = randomRow(rng, hi-lo, buckets, shape)
						if shape == 4 {
							hists[i] = make([]int32, buckets)
							hists[i][i] = int32(hi - lo)
						}
					}
					be, m := c.new(), contractMachine(t, P)
					st := be.alloc(m, cfg, algRadix, n, 0)
					for i, pt := range st.buf.part {
						for k := 0; k < pt.n; k++ {
							pt.arr.Data[k] = keyID(i, k)
						}
					}
					parts := blockedParts(n, P)
					if st.tmp.shared {
						parts = []int64{0, int64(n)}
					}
					runExchange(t, id+" blocked", c, m, newOracle(hists, parts), false, st.buf, st.tmp,
						func(p *machine.Proc) *chunkPlan { return be.histograms(p, hists[p.ID]) }, be, true)
				}

				// Splitter-directed: row q splits processor q's partition
				// among the destinations. Shape 1 sends everything to one
				// rank; shape 4 keeps everything home.
				if c.name == "mpi-onemsg" {
					continue // the NAS-IS exchange is radix-only
				}
				sink := rng.Intn(P)
				rows := make([][]int32, P)
				bnds := make([][]int64, P)
				for q := range rows {
					lo, hi := keys.Bounds(n, P, q)
					rows[q] = randomRow(rng, hi-lo, P, shape)
					switch shape {
					case 1:
						rows[q] = make([]int32, P)
						rows[q][sink] = int32(hi - lo)
					case 4:
						rows[q] = make([]int32, P)
						rows[q][q] = int32(hi - lo)
					}
					bnds[q] = make([]int64, P+1)
					scanInto(bnds[q], rows[q])
				}
				for _, placed := range []bool{true, false} {
					if !placed && c.name == "shmem-put" {
						continue
					}
					alg := algSample
					if placed {
						alg = algPsrs
					}
					be, m := c.new(), contractMachine(t, P)
					st := be.alloc(m, cfg, alg, n, P)
					for q, pt := range st.keys.part {
						for k := 0; k < pt.n; k++ {
							pt.arr.Data[pt.lo+k] = keyID(q, k)
						}
					}
					runExchange(t, fmt.Sprintf("%s direct placed=%v", id, placed), c, m, newOracle(rows, nil),
						true, st.keys, st.recv,
						func(p *machine.Proc) *chunkPlan { return be.routes(p, bnds[p.ID], placed) }, be, placed)
				}
			}
		}
	}
}

// checkPlan compares newChunkPlan for the given histograms and partition
// starts (nil: splitter-directed) against the key-by-key oracle: each's
// runs must tile every destination exactly as the oracle fills it, count
// must agree with each, a blocked plan's enumeration must start at the
// first bucket that reaches the partition, and neither may allocate.
func checkPlan(t *testing.T, id string, hists [][]int32, parts []int64) {
	t.Helper()
	P := len(hists)
	pl, o := newChunkPlan(hists, parts), newOracle(hists, parts)
	for dst := range o.dest {
		// [lo, hi) is the bucket range each walks for this destination.
		lo, hi := 0, 0
		if parts != nil {
			lo = int(pl.first[dst])
			for d := 0; d < lo; d++ {
				if pl.gStart[d+1] > parts[dst] {
					t.Fatalf("%s: partition %d starts its walk at bucket %d, but bucket %d reaches into it", id, dst, lo, d)
				}
			}
			if lo < pl.buckets && pl.gStart[lo+1] <= parts[dst] {
				t.Fatalf("%s: partition %d starts its walk at bucket %d, which ends before it begins", id, dst, lo)
			}
			for hi = lo; hi < pl.buckets && pl.gStart[hi] < parts[dst+1]; hi++ {
			}
		}
		got := make([]uint32, len(o.dest[dst]))
		filled := 0
		for src := 0; src < P; src++ {
			runs := 0
			pl.each(src, dst, func(ch chunk) {
				runs++
				for k := 0; k < ch.count; k++ {
					got[ch.dstOff+k] = keyID(src, ch.srcOff+k)
				}
				filled += ch.count
			})
			if runs != o.runs[src][dst] {
				t.Fatalf("%s: %d->%d: each gave %d runs, oracle %d", id, src, dst, runs, o.runs[src][dst])
			}
			// Of the buckets walked only the first and the last can hold
			// keys of src that all fall outside the partition.
			visited := 0
			for d := lo; d < hi; d++ {
				if pl.runLen(src, d) > 0 {
					visited++
				}
			}
			if visited > runs+2 {
				t.Fatalf("%s: %d->%d: each visits %d of the source's buckets for %d runs", id, src, dst, visited, runs)
			}
		}
		if filled != len(got) {
			t.Fatalf("%s: destination %d received %d keys, oracle %d", id, dst, filled, len(got))
		}
		for k := range got {
			if got[k] != o.dest[dst][k] {
				t.Fatalf("%s: destination %d offset %d holds %#x, oracle %#x",
					id, dst, k, got[k], o.dest[dst][k])
			}
		}
		if parts == nil && pl.incoming(dst) != len(got) {
			t.Fatalf("%s: incoming(%d) = %d, oracle %d", id, dst, pl.incoming(dst), len(got))
		}
	}
	sink := 0
	if a := testing.AllocsPerRun(10, func() {
		for src := 0; src < P; src++ {
			c := pl.cursor(src, (src+1)%P)
			for ch, ok := c.next(); ok; ch, ok = c.next() {
				sink += ch.count
			}
			pl.each(src, src, func(ch chunk) { sink += ch.count })
		}
	}); a != 0 {
		t.Fatalf("%s: each/cursor allocate (%v allocs per run)", id, a)
	}
}

// TestChunkPlanBruteForce checks newChunkPlan with explicit partition
// starts — blocked and splitter-directed — against the key-by-key
// oracle: random small plans, then the shapes that bend the blocked
// plan's partition → first-bucket index at machine sizes up to 256
// processors × 2048 buckets.
func TestChunkPlanBruteForce(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		P, B := 1+rng.Intn(9), 1+rng.Intn(20)
		direct := trial%2 == 1
		if direct {
			B = P
		}
		hists := make([][]int32, P)
		n := 0
		for i := range hists {
			hists[i] = randomRow(rng, rng.Intn(50), B, trial/2)
			for _, c := range hists[i] {
				n += int(c)
			}
		}
		var parts []int64
		if !direct {
			parts = blockedParts(n, P)
		}
		checkPlan(t, fmt.Sprintf("trial %d", trial), hists, parts)
	}

	// fill gives processor i's histogram over B buckets.
	shapes := []struct {
		name string
		fill func(rng *rand.Rand, i, P, B int) []int32
	}{
		{"uniform", func(rng *rand.Rand, _, _, B int) []int32 { return randomRow(rng, 40, B, 0) }},
		// n < P: most partitions are empty.
		{"fewer keys than partitions", func(rng *rand.Rand, i, P, B int) []int32 {
			row := make([]int32, B)
			if i%3 == 0 && i < P-1 {
				row[rng.Intn(B)] = 1
			}
			return row
		}},
		{"all-zero", func(_ *rand.Rand, _, _, B int) []int32 { return make([]int32, B) }},
		// One bucket spans every partition.
		{"one bucket", func(_ *rand.Rand, _, _, B int) []int32 {
			row := make([]int32, B)
			row[B/2] = 50
			return row
		}},
		// Every source holds keys in every bucket, so with B > P each
		// partition spans many buckets and every bucket walked must
		// yield a run, bar the first and last.
		{"dense", func(_ *rand.Rand, i, _, B int) []int32 {
			row := make([]int32, B)
			for d := range row {
				row[d] = int32(1 + (i+d)%2)
			}
			return row
		}},
	}
	for _, dim := range [][2]int{{1, 2}, {3, 8}, {9, 256}, {64, 256}, {256, 256}, {256, 2048}} {
		P, B := dim[0], dim[1]
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(P*B + len(sh.name))))
			hists := make([][]int32, P)
			n := 0
			for i := range hists {
				hists[i] = sh.fill(rng, i, P, B)
				for _, c := range hists[i] {
					n += int(c)
				}
			}
			checkPlan(t, fmt.Sprintf("%dx%d %s", P, B, sh.name), hists, blockedParts(n, P))
		}
	}
}
