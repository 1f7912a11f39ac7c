package sorts

import (
	"slices"
	"sort"

	"repro/internal/keys"
	"repro/internal/machine"
)

// SampleCCSAS runs the parallel sample sort under the cache-coherent
// shared address space model: group-based splitter selection, and a
// redistribution by remote reads (see ccsasBackend).
func SampleCCSAS(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return sampleSort(m, keysIn, cfg, &ccsasBackend{})
}

// SampleMPI runs the parallel sample sort under message passing: the
// splitter phase is an MPI_Allgather and the redistribution exactly one
// message per process pair (see mpiBackend).
func SampleMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return sampleSort(m, keysIn, cfg, &mpiBackend{})
}

// SampleSHMEM runs the parallel sample sort under the SHMEM model,
// obtained from the MPI program as in the paper: each send/receive pair
// of the redistribution becomes a one-sided get (see shmemBackend).
func SampleSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return sampleSort(m, keysIn, cfg, &shmemBackend{})
}

// sampleSort is the paper's splitter-based sample sort, written once for
// every model, in its five phases: local radix sort, evenly spaced
// samples, splitter selection from everyone's samples, splitter-directed
// redistribution, and a second local radix sort of the received keys.
func sampleSort(m *machine.Machine, keysIn []uint32, cfg Config, be backend) (*Result, error) {
	P := m.Procs()
	sampleCount := func(cfg Config, n, procs int) int { return keys.SampleCount(cfg.SampleSize, n, procs) }
	return runProgram(m, keysIn, cfg, be, algSample, sampleCount, func(p *machine.Proc, st *store, cfg Config, sCount int) part {
		me := p.ID
		hist := st.hist[me]

		p.SetPhase("localsort1")
		sorted := sortLocal(p, st, cfg)
		mine := sorted.part[me]
		if P == 1 {
			// A uniprocessor sample sort is just the local sort.
			return mine
		}

		p.SetPhase("splitters")
		samples := selectSamples(p, mine.arr, mine.lo, mine.n, sCount)
		splitters := be.splitters(p, samples)

		p.SetPhase("redistribute")
		b := boundariesOf(p, mine.arr, mine.lo, mine.n, splitters)
		incoming := be.exchange(p, be.routes(p, b, false), sorted, st.recv, xfer{})

		p.SetPhase("localsort2")
		recv := st.recv.part[me].arr
		tmp2 := st.out.part[me].arr.Grow(incoming)
		if localRadixSort(p, recv, tmp2, 0, incoming, cfg, hist, machine.Private) {
			recv = tmp2
		}
		return part{arr: recv, n: incoming}
	})
}

// sortLocal radix-sorts the calling processor's key partition, toggling
// between the key array pair, and returns the array the sorted run ended
// up in.
func sortLocal(p *machine.Proc, st *store, cfg Config) *partitioned {
	mine := st.keys.part[p.ID]
	if localRadixSort(p, mine.arr, st.tmp.part[p.ID].arr, mine.lo, mine.n, cfg,
		st.hist[p.ID], machine.Private) {
		return st.tmp
	}
	return st.keys
}

// selectSamples picks count (at most n) regular samples, at
// keys.SampleRank, from the locally sorted run arr.Data[lo:lo+n],
// charging the reads.
func selectSamples(p *machine.Proc, arr *machine.Array[uint32], lo, n, count int) []uint32 {
	count = min(count, n)
	out := make([]uint32, count)
	idx := make([]int64, count)
	for j := 0; j < count; j++ {
		i := lo + keys.SampleRank(j, n, count)
		idx[j] = int64(i)
		out[j] = arr.Data[i]
	}
	// One gather-stream call charges all sample reads (3 ops each for the
	// index arithmetic), replacing count per-element Load/Compute pairs.
	arr.GatherLoad(p, idx, machine.Private, 3)
	return out
}

// mergeSamplesCharged sorts a concatenation of `ways` already-sorted
// runs, charging only a multiway merge (n log ways) — the samples each
// process publishes are pre-sorted, so collectors merge rather than
// re-sort.
func mergeSamplesCharged(p *machine.Proc, s []uint32, ways int) {
	slices.Sort(s)
	chargeMerge(p, len(s), ways)
}

// chargeMerge charges a ways-way merge of n keys.
func chargeMerge(p *machine.Proc, n, ways int) {
	if n > 1 && ways > 1 {
		p.Compute(2 * n * ilog2(ways))
	}
}

// splittersFrom picks procs-1 splitters from the sorted pool of all
// samples by regular sampling.
func splittersFrom(p *machine.Proc, sortedAll []uint32, procs int) []uint32 {
	spl := make([]uint32, procs-1)
	for j := 1; j < procs; j++ {
		spl[j-1] = sortedAll[j*len(sortedAll)/procs]
	}
	p.Compute(2 * procs)
	return spl
}

// splittersOf merges the pool of every processor's sorted samples (pool
// returns a copy of the one this processor collected) and picks the
// splitters — what each process of the message-passing and one-sided
// programs computes redundantly. The redundancy is simulated: every
// processor is charged the merge and the selection, while the host sorts
// one pool for all of them.
func splittersOf(p *machine.Proc, procs int, pool func() []uint32) []uint32 {
	sorted := mergedPool(p, pool)
	chargeMerge(p, len(sorted), procs)
	return splittersFrom(p, sorted, procs)
}

// boundariesOf computes, for the locally sorted run arr.Data[lo:lo+n]
// and the given splitters, the procs+1 boundary offsets (relative to lo):
// keys [b[j], b[j+1]) go to destination j. Runs of keys equal to a
// repeated splitter are spread evenly across the tied destinations
// (equal keys may legally land on any of them), which keeps heavily
// duplicated inputs — the paper's zero distribution — load balanced.
func boundariesOf(p *machine.Proc, arr *machine.Array[uint32], lo, n int, splitters []uint32) []int64 {
	procs := len(splitters) + 1
	b := make([]int64, procs+1)
	b[procs] = int64(n)
	for j, s := range splitters {
		// Binary search for the first key >= s.
		idx := sort.Search(n, func(i int) bool { return arr.Data[lo+i] >= s })
		b[j+1] = int64(idx)
		p.Compute(2 * ilog2(n+1))
	}
	// Spread equal-splitter runs: consecutive splitters js..je sharing
	// value v pin boundaries b[js+1..je+1] to the same spot, funnelling
	// every key == v to one destination; slice that run across the tied
	// destinations instead.
	for js := 0; js < len(splitters); {
		je := js
		for je+1 < len(splitters) && splitters[je+1] == splitters[js] {
			je++
		}
		if m := je - js + 1; m > 1 {
			v := splitters[js]
			lb := int(b[js+1])
			ub := lb + sort.Search(n-lb, func(i int) bool { return arr.Data[lo+lb+i] > v })
			if run := ub - lb; run > 0 {
				for i := 0; i < m; i++ {
					b[js+1+i] = int64(lb + i*run/m)
				}
				p.Compute(m + 2*ilog2(n+1))
			}
		}
		js = je + 1
	}
	return b
}
