// Package ccsas implements the cache-coherent shared address space
// programming model on the simulated machine: shared arrays accessed by
// ordinary loads and stores, barriers, pairwise flag synchronization, and
// the binary prefix tree used by the SPLASH-2 radix sort to accumulate
// histograms, generalised to any processor count the machine can wire.
//
// Communication and replication are implicit: processors simply load and
// store shared data, and the machine layer prices the coherence protocol
// transactions that result.
package ccsas

import (
	"fmt"
	"math/bits"

	"repro/internal/machine"
	"repro/internal/trace"
)

// World is the shared-address-space execution context for one parallel
// program: the machine plus the synchronization plumbing.
type World struct {
	M *machine.Machine

	// flagLatencyNs is the time from a flag store by one processor to the
	// spinning waiter observing it: one coherence transfer of the flag
	// line, approximated by the machine's furthest uncontended read
	// latency.
	flagLatencyNs float64
}

// NewWorld builds a world over m.
func NewWorld(m *machine.Machine) *World {
	return &World{
		M:             m,
		flagLatencyNs: m.Topology().FurthestReadLatency(),
	}
}

// Barrier joins the machine-wide barrier.
func (w *World) Barrier(p *machine.Proc) { w.M.Barrier(p) }

// Flag is a pairwise synchronization flag carrying the setter's virtual
// time, modeling a spin-wait on a shared memory word. Each Flag is
// single-producer single-consumer per episode and holds one setting: Set
// waits while the previous one is untaken. Both park in the machine's
// gate (machine.Mailbox), so a processor waiting on a flag unwinds when
// another processor's panic aborts the run, and one whose peer returned
// without setting it, or that waits in a cycle of flags, fails the run:
// Machine.Run returns a *machine.StrandedError.
type Flag struct {
	w   *World
	box machine.Mailbox
}

// NewFlag builds a flag in world w.
func NewFlag(w *World) *Flag { return &Flag{w: w} }

// Set publishes the flag: one store to the flag line, which the waiter's
// node will fetch.
func (f *Flag) Set(p *machine.Proc) {
	// The store itself is a handful of cycles; the transfer cost is paid
	// by the waiter's observation latency.
	p.Compute(1)
	f.box.Put(p, p.Now())
}

// Wait spins until the flag is set, charging the wait to SYNC plus one
// flag-line transfer.
func (f *Flag) Wait(p *machine.Proc) {
	start := p.Now()
	p.WaitUntil(f.box.Take(p) + f.w.flagLatencyNs)
	if waited := p.Now() - start; waited > 0 {
		p.TraceEvent(trace.EvMsgWait, -1, 0, waited)
	}
}

// PrefixTree accumulates per-processor histograms into global bucket
// totals and per-processor ranks using a binary tree of partial sums, the
// way the SPLASH-2 radix sort builds its global histogram with
// fine-grained load-store communication.
//
// For p processors each holding a local histogram h_i of B buckets, one
// Reduce episode computes, for every processor i and bucket b:
//
//	rank[i][b]  = sum of h_j[b] for j < i   (exclusive scan across procs)
//	total[b]    = sum of h_j[b] for all j
//
// The up-sweep combines sibling block sums level by level; the down-sweep
// distributes exclusive prefixes back to the leaves. Both use pairwise
// flag synchronization, not global barriers.
//
// Level l has ⌈p/2^l⌉ blocks, so the tree spans any p: when p is not a
// power of two, a level's odd last block has no sibling in the up-sweep
// (its owner copies its sum up without a wait or a remote load) and no
// right child in the down-sweep (its owner stores only the left child's
// prefix and sets no flag). Either way the owner is charged the same 2B
// ALU operations as a full pair.
type PrefixTree struct {
	w       *World
	buckets int
	levels  int

	// blockSum[l][k] holds the histogram sum over processors
	// [k*2^l, min((k+1)*2^l, p)); blockSum[0][i] is processor i's local
	// histogram.
	blockSum [][]*machine.Array[int32]

	// upReady[l][k] signals that blockSum[l][k] is complete.
	upReady [][]*Flag
	// downReady[l][k] signals that the prefix for block (l,k) is ready in
	// prefixTmp[l][k].
	downReady [][]*Flag
	// prefixTmp[l][k] carries block (l,k)'s exclusive prefix during the
	// down-sweep.
	prefixTmp [][]*machine.Array[int32]
}

// NewPrefixTree builds the tree's shared data structures over the
// machine's processors.
func NewPrefixTree(w *World, buckets int) *PrefixTree {
	p := w.M.Procs()
	levels := bits.Len(uint(p - 1))
	t := &PrefixTree{w: w, buckets: buckets, levels: levels}
	t.blockSum = make([][]*machine.Array[int32], levels+1)
	t.prefixTmp = make([][]*machine.Array[int32], levels+1)
	t.upReady = make([][]*Flag, levels+1)
	t.downReady = make([][]*Flag, levels+1)
	for l := 0; l <= levels; l++ {
		nBlocks := (p-1)>>l + 1 // ⌈p/2^l⌉
		t.blockSum[l] = make([]*machine.Array[int32], nBlocks)
		t.prefixTmp[l] = make([]*machine.Array[int32], nBlocks)
		t.upReady[l] = make([]*Flag, nBlocks)
		t.downReady[l] = make([]*Flag, nBlocks)
		for k := 0; k < nBlocks; k++ {
			owner := k << l // the lowest-numbered processor of the block owns its node
			t.blockSum[l][k] = machine.NewArrayOnProc[int32](w.M,
				fmt.Sprintf("tree.sum[%d][%d]", l, k), buckets, owner)
			t.prefixTmp[l][k] = machine.NewArrayOnProc[int32](w.M,
				fmt.Sprintf("tree.pre[%d][%d]", l, k), buckets, owner)
			t.upReady[l][k] = NewFlag(w)
			t.downReady[l][k] = NewFlag(w)
		}
	}
	return t
}

// Reduce runs one accumulation episode for processor p (id == leaf index)
// with local histogram local (length == buckets). It returns the
// exclusive cross-processor rank vector for this leaf and the global
// totals. All processors must call Reduce once per episode.
func (t *PrefixTree) Reduce(p *machine.Proc, local []int32) (rank, total []int32) {
	if len(local) != t.buckets {
		panic(fmt.Sprintf("ccsas: Reduce histogram length %d, want %d", len(local), t.buckets))
	}
	i := p.ID
	b := t.buckets

	// Publish the leaf histogram (stores to this proc's tree node). A
	// flag is set only when a distinct processor will wait on it: block k
	// at any level is awaited by its sibling combiner iff k is odd.
	leaf := t.blockSum[0][i]
	copy(leaf.Data, local)
	leaf.StoreRange(p, 0, b, machine.Private)
	p.Compute(b) // the copy's ALU work
	if i%2 == 1 {
		t.upReady[0][i].Set(p)
	}

	// Up-sweep: processor i participates at level l+1 iff i is a multiple
	// of 2^(l+1); it combines its block with the sibling block owned by
	// i + 2^l, when the level has one.
	for l := 0; l < t.levels; l++ {
		stride := 1 << (l + 1)
		if i%stride != 0 {
			break
		}
		k := i >> l // own block index at level l
		parent := t.blockSum[l+1][i>>(l+1)]
		own := t.blockSum[l][k]
		copy(parent.Data, own.Data)
		if k+1 < len(t.blockSum[l]) {
			sibling := t.blockSum[l][k+1]
			t.upReady[l][k+1].Wait(p)
			// Read the sibling's vector (produced remotely) and accumulate.
			sibling.LoadRange(p, 0, b, machine.RemoteProduced)
			for j := 0; j < b; j++ {
				parent.Data[j] += sibling.Data[j]
			}
		}
		own.LoadRange(p, 0, b, machine.Private) // own block: cached
		parent.StoreRange(p, 0, b, machine.Private)
		p.Compute(2 * b)
		if kp := i >> (l + 1); kp%2 == 1 {
			t.upReady[l+1][kp].Set(p)
		}
	}

	// Root seeds the down-sweep with a zero prefix for the whole range.
	if i == 0 {
		root := t.prefixTmp[t.levels][0]
		for j := 0; j < b; j++ {
			root.Data[j] = 0
		}
		root.StoreRange(p, 0, b, machine.Private)
		p.Compute(b)
	}

	// Down-sweep: the owner of a block receives its prefix, keeps it for
	// its left child (which it also owns), and sends prefix+leftSum to
	// the right child's owner, when the block has a right child.
	// Processor i owns block i>>l at level l iff i%2^l == 0. A block's
	// prefix must be awaited only when the block is a right child (odd
	// index); left children's prefixes were written by this same
	// processor one level up.
	for l := t.levels; l >= 1; l-- {
		stride := 1 << l
		if i%stride != 0 {
			continue
		}
		k := i >> l
		parentPre := t.prefixTmp[l][k]
		if k%2 == 1 {
			t.downReady[l][k].Wait(p)
			parentPre.LoadRange(p, 0, b, machine.RemoteProduced)
		} else {
			parentPre.LoadRange(p, 0, b, machine.Private)
		}
		// Left child (same owner): prefix unchanged.
		left := t.prefixTmp[l-1][2*k]
		copy(left.Data, parentPre.Data)
		left.StoreRange(p, 0, b, machine.Private)
		if r := 2*k + 1; r < len(t.prefixTmp[l-1]) {
			// Right child: prefix + left block sum.
			right := t.prefixTmp[l-1][r]
			leftSum := t.blockSum[l-1][2*k]
			for j := 0; j < b; j++ {
				right.Data[j] = parentPre.Data[j] + leftSum.Data[j]
			}
			right.StoreRange(p, 0, b, machine.ConflictWrite) // right child's owner caches it
			p.Compute(2 * b)
			t.downReady[l-1][r].Set(p)
		} else {
			p.Compute(2 * b)
		}
	}

	// Leaf level: collect own prefix (odd leaves wait for their parent's
	// owner; even leaves wrote it themselves above).
	myPre := t.prefixTmp[0][i]
	if i%2 == 1 {
		t.downReady[0][i].Wait(p)
		myPre.LoadRange(p, 0, b, machine.RemoteProduced)
	} else {
		myPre.LoadRange(p, 0, b, machine.Private)
	}
	rank = make([]int32, b)
	copy(rank, myPre.Data)
	p.Compute(b)

	// Everyone reads the root total (read-shared after the up-sweep).
	rootSum := t.blockSum[t.levels][0]
	rootSum.LoadRange(p, 0, b, machine.SharedRead)
	total = make([]int32, b)
	copy(total, rootSum.Data)
	p.Compute(b)

	// An episode ends with a barrier (as in SPLASH-2), which also keeps
	// tree reuse across sort passes safe.
	t.w.Barrier(p)
	return rank, total
}
