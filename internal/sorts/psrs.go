package sorts

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// PsrsCCSAS runs Parallel Sorting by Regular Sampling under the
// cache-coherent shared address space model: pivots travel through
// shared memory and the chunk exchange is pull-based (see ccsasBackend).
func PsrsCCSAS(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return psrsSort(m, keysIn, cfg, &ccsasBackend{})
}

// PsrsMPI runs PSRS under message passing: the pivot step is an explicit
// gather/broadcast through rank 0, the partition counts are allgathered,
// and the exchange is exactly one message per pair (see mpiBackend).
func PsrsMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return psrsSort(m, keysIn, cfg, &mpiBackend{})
}

// PsrsSHMEM runs PSRS under the SHMEM model with sender-initiated
// communication: samples and chunks are put, pivots got (see
// shmemBackend).
func PsrsSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return psrsSort(m, keysIn, cfg, &shmemBackend{put: true})
}

// psrsSort is Parallel Sorting by Regular Sampling (Shi & Schaeffer
// 1992), written once for every model: local radix sort, P regular
// samples per processor, pivot selection, binary-search partition, a
// planned all-to-all of the partition chunks into source-major receive
// buffers, and a local multiway merge. It differs from the paper's
// sample sort in two communication shapes: pivot selection is a
// gather-to-root plus broadcast (the root merges all P*P regular samples
// and picks the P-1 pivots alone), and the received keys are
// multiway-MERGED rather than re-sorted — each processor's contribution
// arrives already sorted, so a P-way merge of the runs finishes the sort
// in one sweep.
func psrsSort(m *machine.Machine, keysIn []uint32, cfg Config, be backend) (*Result, error) {
	if n := len(keysIn); n > math.MaxInt32 {
		// The merge heap holds positions in a receive buffer (at most n
		// keys) as int32.
		return nil, fmt.Errorf("sorts: psrs: %d keys exceed the merge's 2^31-1 key limit", n)
	}
	P := m.Procs()
	// P regular samples per processor.
	perProc := func(_ Config, _, procs int) int { return procs }
	return runProgram(m, keysIn, cfg, be, algPsrs, perProc, func(p *machine.Proc, st *store, cfg Config, _ int) part {
		me := p.ID

		p.SetPhase("localsort")
		sorted := sortLocal(p, st, cfg)
		mine := sorted.part[me]
		if P == 1 {
			// A uniprocessor PSRS is just the local sort.
			return mine
		}

		p.SetPhase("sample")
		samples := selectSamples(p, mine.arr, mine.lo, mine.n, P)
		be.publishSamples(p, samples)

		p.SetPhase("pivot-exchange")
		pivots := be.pivots(p, samples)

		p.SetPhase("partition")
		b := boundariesOf(p, mine.arr, mine.lo, mine.n, pivots)
		if hook := corruptPSRSBoundary; hook != nil {
			hook(me, mine.n, b)
		}
		// Destinations play the role of radix buckets, so the plan's
		// rank/bufPos give the exchange and merge offsets directly.
		plan := be.routes(p, b, true)
		p.Compute(plan.computeOps())

		p.SetPhase("transfer")
		incoming := be.exchange(p, plan, sorted, st.recv, xfer{tag: 2})

		p.SetPhase("merge")
		out := st.out.part[me].arr.Grow(incoming)
		starts, counts := plan.runs(me)
		multiwayMergeCharged(p, st.recv.part[me].arr, out, starts, counts)
		return part{arr: out, n: incoming}
	})
}

// corruptPSRSBoundary, when set, mutates a processor's partition
// boundary vector in place right after it is computed. It exists for
// the mutation tests (internal/check): a corrupted partition must be
// caught by the sorted-output/agreement oracles downstream, never
// silently repriced into a "valid" run.
var corruptPSRSBoundary func(proc, np int, b []int64)

// SetCorruptPSRSBoundaryForTest installs (or, with nil, removes) the
// partition-corruption hook. Not safe to call while runs are in flight.
func SetCorruptPSRSBoundaryForTest(f func(proc, np int, b []int64)) {
	corruptPSRSBoundary = f
}

// pivotsFrom picks procs-1 pivots from the sorted pool of all regular
// samples. The pool holds P groups of g = L/P samples, each group
// drawn by selectSamples at the interior quantiles (k+1)/(g+1) of one
// locally sorted run, so pool index m sits near global quantile
// (m/P + 1)/(g+1); solving that for quantile j/P puts pivot j at index
// j*(g+1) - P/2. (The classic PSRS rho = P/2 offset assumes samples
// taken from the start of each run; applied to these center-shifted
// samples it would double-shift and systematically overload partition
// 0.) Degenerate pools (fewer samples than processors, n < P*P) clamp;
// duplicate pivots are handled downstream by boundariesOf's
// tie-spreading.
func pivotsFrom(p *machine.Proc, sortedAll []uint32, procs int) []uint32 {
	pv := make([]uint32, procs-1)
	L := len(sortedAll)
	if L == 0 {
		return pv
	}
	g := L / procs
	for j := 1; j < procs; j++ {
		idx := j*(g+1) - procs/2
		if idx < 0 {
			idx = 0
		}
		if idx >= L {
			idx = L - 1
		}
		pv[j-1] = sortedAll[idx]
	}
	p.Compute(2 * procs)
	return pv
}

// pivotsOf merges the root's pool of every processor's sorted samples
// and picks the pivots.
func pivotsOf(p *machine.Proc, pool []uint32, procs int) []uint32 {
	mergeSamplesCharged(p, pool, procs)
	return pivotsFrom(p, pool, procs)
}

// psrsDestCounts converts partition boundaries b (from boundariesOf,
// len P+1) into the per-destination key counts that act as this
// processor's "histogram" row of the chunk plan: destinations play the
// role radix buckets play in the radix sorts' plans.
func psrsDestCounts(p *machine.Proc, b []int64) []int32 {
	p.Compute(len(b) - 1)
	return destCounts(b)
}

// destCounts is psrsDestCounts' arithmetic without its charge.
func destCounts(b []int64) []int32 {
	counts := make([]int32, len(b)-1)
	for d := range counts {
		counts[d] = int32(b[d+1] - b[d])
	}
	return counts
}

// multiwayMergeCharged merges the sorted runs recv[starts[q] :
// starts[q]+counts[q]) into out[0:total] with a binary heap of run
// heads, charging per output key one sequential read of the winning
// head, the heap's ~2·log2(ways) comparisons, and one sequential write.
// Ties break by source rank, keeping the merge deterministic.
func multiwayMergeCharged(p *machine.Proc, recv, out *machine.Array[uint32], starts, counts []int) {
	// 16 bytes a head, four to a host cache line; at and end index recv,
	// which psrsSort keeps below 2^31 keys.
	type head struct {
		key     uint32
		src     int32
		at, end int32
	}
	hp := make([]head, 0, len(starts))
	less := func(a, b head) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.src < b.src
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(hp[i], hp[parent]) {
				break
			}
			hp[i], hp[parent] = hp[parent], hp[i]
			i = parent
		}
	}
	// siftDown places h at the root's position in heap order: the hole
	// left at the root sinks, the smaller child moving up into it, until h
	// fits — one move per level instead of a swap.
	siftDown := func(h head) {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(hp) {
				break
			}
			if c+1 < len(hp) && less(hp[c+1], hp[c]) {
				c++
			}
			if !less(hp[c], h) {
				break
			}
			hp[i] = hp[c]
			i = c
		}
		hp[i] = h
	}
	// Each run head advances sequentially through its own region of recv,
	// so every run gets its own stream cursor (private cache/TLB lanes):
	// each of the P interleaved streams keeps its own hot line and page,
	// and each access charges exactly what one sequential (MSHR-
	// overlapped) access of the element charges.
	readers := make([]machine.SeqCursor, len(starts))
	for q := range starts {
		recv.OpenCursor(&readers[q], p, false, machine.Private)
	}
	var writer machine.SeqCursor
	out.OpenCursor(&writer, p, true, machine.Private)
	for q := range starts {
		if counts[q] == 0 {
			continue
		}
		readers[q].Access(starts[q])
		k := recv.Data[starts[q]]
		hp = append(hp, head{key: k, src: int32(q), at: int32(starts[q] + 1), end: int32(starts[q] + counts[q])})
		siftUp(len(hp) - 1)
	}
	stepOps := 2*ilog2(len(hp)+1) + 4
	total := 0
	for len(hp) > 0 {
		h := hp[0]
		out.Data[total] = h.key
		writer.Access(total)
		p.Compute(stepOps)
		total++
		if h.at < h.end {
			readers[h.src].Access(int(h.at))
			h.key = recv.Data[h.at]
			h.at++
		} else {
			h = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
			if len(hp) == 0 {
				break
			}
		}
		siftDown(h)
	}
}
