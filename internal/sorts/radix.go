package sorts

import (
	"repro/internal/keys"
	"repro/internal/machine"
)

// RadixCCSAS runs the parallel radix sort under the cache-coherent
// shared address space model: the original SPLASH-2 program, or with
// buffered the paper's improved CC-SAS-NEW (see ccsasBackend).
func RadixCCSAS(m *machine.Machine, keysIn []uint32, cfg Config, buffered bool) (*Result, error) {
	return radixSort(m, keysIn, cfg, &ccsasBackend{buffered: buffered})
}

// RadixMPI runs the parallel radix sort under message passing, with the
// library cfg.MPI describes; cfg.MPIOneMessagePerDest selects the
// NAS-IS-style exchange (see mpiBackend).
func RadixMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return radixSort(m, keysIn, cfg, &mpiBackend{oneMsg: cfg.MPIOneMessagePerDest})
}

// RadixSHMEM runs the parallel radix sort under the SHMEM one-sided
// model. Since every process has the full histogram locally,
// communication is receiver-initiated: each process gets every remote
// chunk destined for its partition (see shmemBackend).
func RadixSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return radixSort(m, keysIn, cfg, &shmemBackend{})
}

// radixSort is the parallel radix sort, written once for every model.
// Each pass counts the current digit locally, shares the histograms so
// every processor can plan the pass's exchange, permutes the keys
// locally — into a bucket-major send buffer, which composes larger
// transfers, or under the original CC-SAS straight into the shared
// output — and lets the backend move each contiguously-destined run to
// the blocked partition it belongs to.
func radixSort(m *machine.Machine, keysIn []uint32, cfg Config, be backend) (*Result, error) {
	return runProgram(m, keysIn, cfg, be, algRadix, nil, func(p *machine.Proc, st *store, cfg Config, _ int) part {
		me := p.ID
		hist := st.hist[me]
		cur, nxt := st.keys, st.tmp
		// Pass 0 reads the freshly initialized local partition; later
		// passes read what the previous pass's exchange delivered.
		readClass := machine.Private
		for pass := 0; pass < keys.Passes(cfg.Radix); pass++ {
			mine := cur.part[me]
			p.SetPhase("count")
			counts := countPass(p, mine.arr, mine.lo, mine.n, pass, cfg, hist, readClass)

			// Every processor computes the plan locally (redundantly, as
			// the paper notes) from what the collective delivered, and is
			// charged for it here; on the host the backend builds a plan
			// all of them arrive at once and shares it.
			p.SetPhase("histogram")
			plan := be.histograms(p, counts)
			p.Compute(plan.computeOps())

			p.SetPhase("permute")
			t := be.permuteTarget(p, plan, nxt)
			p.SetContention(t.contention)
			permutePass(p, mine.arr, t.arr, mine.lo, mine.n, pass, cfg, hist, t.pos,
				readClass, t.class)
			p.SetContention(1)

			be.exchange(p, plan, st.buf, nxt, xfer{tag: pass, transfer: "transfer", sync: "sync"})
			p.SetPhase("")
			cur, nxt = nxt, cur
			readClass = be.received()
		}
		return cur.part[me]
	})
}
