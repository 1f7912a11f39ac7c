package sorts

import "repro/internal/keys"

// chunkPlan captures where every processor's bucket-major send buffer
// scatters into the partitioned output of one all-to-all. In the paper's
// MPI and SHMEM programs each process computes the plan locally and
// redundantly from the collected histograms, so senders know exactly
// what to send and receivers know exactly what to expect — one of the
// simplifications the paper credits to having all histogram data
// locally.
//
// That redundancy is a simulated cost: every processor is charged
// computeOps for the plan it uses. It is not a host cost: the collected
// histograms are by construction the same on every processor, so a full
// plan (newChunkPlan) is built once per collective step, by the last
// processor to reach the machine's gate (sharedPlan, shared.go), and the
// same immutable value handed to all of them. Only newRankPlan, the
// one-row view the CC-SAS prefix tree gives each processor, is built per
// processor.
//
// All three algorithms exchange through it. Radix sort's buckets are
// digits and its destination partitions the blocked slices of the global
// array; in the splitter sorts bucket d is the run of keys bound for
// processor d, so every bucket is one whole destination partition.
type chunkPlan struct {
	buckets int
	// rows is how many processors' histograms the plan was built from
	// (the CC-SAS radix sort learns only its own rank row from the prefix
	// tree); the scan over them is what computeOps charges.
	rows int
	// gStart[d] is the global output index where bucket d begins, with
	// one trailing entry for the total.
	gStart []int64
	// rank[i][d] is processor i's key count rank within bucket d
	// (exclusive prefix over processors). A nil rank marks an unplaced
	// plan: nobody learned the other processors' counts (sample sort), so
	// receivers pack runs in arrival order and dstOff is meaningless.
	rank [][]int64
	// bufPos[i][d] is bucket d's offset inside processor i's bucket-major
	// send buffer (exclusive prefix over buckets of i's histogram) and
	// bufPos[i][buckets] the buffer's length, so bucket d of processor i
	// holds bufPos[i][d+1]-bufPos[i][d] keys. A row this processor never
	// learned is nil.
	bufPos [][]int64
	// parts[j] is the global output index where destination partition j
	// begins, with one trailing entry for the total. nil marks a
	// splitter-directed plan: the partitions are the buckets themselves
	// (parts == gStart), every ordered pair of processors exchanges
	// exactly one possibly-empty run, and no clipping is needed.
	parts []int64
	// first[j] is the first bucket whose keys can reach into partition j
	// of a blocked plan (every earlier bucket ends at or before the
	// partition's start), so a pair's enumeration starts there instead of
	// rescanning from bucket 0. nil when parts is.
	first []int32
}

// chunk is one contiguous run of keys moving from a source processor's
// send buffer to a destination partition.
type chunk struct {
	srcOff int // offset within the source's send buffer
	dstOff int // offset within the destination partition
	count  int // number of keys
}

// blockedParts returns the partition starts of an n-key array blocked
// over procs processors (radix sort's destination layout, keys.Bounds),
// with n as the trailing entry.
func blockedParts(n, procs int) []int64 {
	parts := make([]int64, procs+1)
	for i := range parts {
		lo, _ := keys.Bounds(n, procs, i)
		parts[i] = int64(lo)
	}
	return parts
}

// matrix allocates a rows×cols int64 matrix in one slab.
func matrix(rows, cols int) [][]int64 {
	slab := make([]int64, rows*cols)
	m := make([][]int64, rows)
	for i := range m {
		m[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// firstBuckets builds a blocked plan's partition → first-overlapping-
// bucket index in one sweep of two cursors over the bucket and partition
// starts, both ascending.
func firstBuckets(gStart, parts []int64) []int32 {
	if parts == nil {
		return nil
	}
	first := make([]int32, len(parts)-1)
	d, B := 0, len(gStart)-1
	for j := range first {
		for d < B && gStart[d+1] <= parts[j] {
			d++
		}
		first[j] = int32(d)
	}
	return first
}

// newChunkPlan builds the placed plan over every processor's histogram
// for the given destination partition starts (nil: splitter-directed).
// It is pure host work that keeps no reference to hists, and the plan is
// immutable once returned: the backends build it once per collective
// step (sharedPlan) and share it among all processors.
func newChunkPlan(hists [][]int32, parts []int64) *chunkPlan {
	P, B := len(hists), len(hists[0])
	pl := &chunkPlan{buckets: B, rows: P, parts: parts,
		gStart: make([]int64, B+1), rank: matrix(P, B), bufPos: matrix(P, B+1)}
	// rank: exclusive scan over processors per bucket; gStart: exclusive
	// scan over buckets of the per-bucket totals.
	var start int64
	for d := 0; d < B; d++ {
		pl.gStart[d] = start
		var run int64
		for i := 0; i < P; i++ {
			pl.rank[i][d] = run
			run += int64(hists[i][d])
		}
		start += run
	}
	pl.gStart[B] = start
	for i := 0; i < P; i++ {
		scanInto(pl.bufPos[i], hists[i])
	}
	pl.first = firstBuckets(pl.gStart, parts)
	return pl
}

// newRankPlan builds processor me's view of a plan when the collective
// delivered only its own rank row and the bucket totals (the CC-SAS
// prefix tree) rather than every histogram.
func newRankPlan(me, procs int, counts, rank, total []int32, parts []int64) *chunkPlan {
	B := len(counts)
	pl := &chunkPlan{buckets: B, rows: 1, parts: parts,
		rank: make([][]int64, procs), bufPos: make([][]int64, procs)}
	pl.gStart = make([]int64, B+1)
	scanInto(pl.gStart, total)
	pl.first = firstBuckets(pl.gStart, parts)
	pl.rank[me] = make([]int64, B)
	for d, r := range rank {
		pl.rank[me][d] = int64(r)
	}
	pl.bufPos[me] = make([]int64, B+1)
	scanInto(pl.bufPos[me], counts)
	return pl
}

// scanInto writes the exclusive prefix sums of counts, and their total,
// into pos (len(counts)+1 entries).
func scanInto(pos []int64, counts []int32) {
	var run int64
	for d, c := range counts {
		pos[d] = run
		run += int64(c)
	}
	pos[len(counts)] = run
}

// computeOps returns the abstract operation count of building the plan,
// charged to each processor that uses it — in the simulated programs
// each one builds it redundantly, whatever the host does: the rank scan
// over the known processors' histograms dominates.
func (pl *chunkPlan) computeOps() int {
	return pl.rows*pl.buckets + 2*pl.buckets
}

// placed reports whether runs have plan-assigned destination offsets.
func (pl *chunkPlan) placed() bool { return pl.rank != nil }

// chunkCursor enumerates the contiguous runs one processor contributes
// to one destination partition, in bucket order, one per call of next.
type chunkCursor struct {
	pl *chunkPlan
	// row and rank are the source's bufPos and rank rows; the partition
	// is [plo, phi) of the output (blocked plans).
	row, rank []int64
	plo, phi  int64
	// d is the next bucket to look at: the destination itself under a
	// splitter-directed plan, and past the last once its run is out.
	d int
}

// cursor starts the enumeration of src's runs for partition dst.
func (pl *chunkPlan) cursor(src, dst int) chunkCursor {
	c := chunkCursor{pl: pl, row: pl.bufPos[src], d: dst}
	if pl.rank != nil {
		c.rank = pl.rank[src]
	}
	if pl.parts != nil {
		c.plo, c.phi, c.d = pl.parts[dst], pl.parts[dst+1], int(pl.first[dst])
	}
	return c
}

// next returns the next run, or false when there is none. It allocates
// nothing.
func (c *chunkCursor) next() (chunk, bool) {
	pl := c.pl
	if pl.parts == nil {
		if c.d >= pl.buckets {
			return chunk{}, false
		}
		d := c.d
		c.d = pl.buckets
		cnt := c.row[d+1] - c.row[d]
		if cnt <= 0 {
			return chunk{}, false
		}
		ch := chunk{srcOff: int(c.row[d]), count: int(cnt)}
		if c.rank != nil {
			ch.dstOff = int(c.rank[d])
		}
		return ch, true
	}
	// Buckets lie in the output in order: none before first[dst] reaches
	// the partition, and none past its end can reach back into it.
	for c.d < pl.buckets && pl.gStart[c.d] < c.phi {
		d := c.d
		c.d++
		cnt := c.row[d+1] - c.row[d]
		if cnt == 0 {
			continue
		}
		cs := pl.gStart[d] + c.rank[d]
		s, e := max(cs, c.plo), min(cs+cnt, c.phi)
		if e <= s {
			continue
		}
		return chunk{srcOff: int(c.row[d] + (s - cs)), dstOff: int(s - c.plo), count: int(e - s)}, true
	}
	return chunk{}, false
}

// each calls fn for every contiguous run processor src contributes to
// destination partition dst, in bucket order. It allocates nothing.
func (pl *chunkPlan) each(src, dst int, fn func(chunk)) {
	c := pl.cursor(src, dst)
	for ch, ok := c.next(); ok; ch, ok = c.next() {
		fn(ch)
	}
}

// runLen returns how many keys src holds for bucket d.
func (pl *chunkPlan) runLen(src, d int) int {
	return int(pl.bufPos[src][d+1] - pl.bufPos[src][d])
}

// incoming returns how many keys land on processor dst under a
// splitter-directed plan, or -1 when this processor never learned some
// source's counts.
func (pl *chunkPlan) incoming(dst int) int {
	total := 0
	for q, row := range pl.bufPos {
		if row == nil {
			return -1
		}
		total += pl.runLen(q, dst)
	}
	return total
}

// runs returns the receive-buffer layout of processor dst's incoming
// runs under a placed splitter-directed plan: runs arrive source-major
// (rank is the exclusive prefix over sources), so run q occupies
// [starts[q], starts[q]+counts[q]).
func (pl *chunkPlan) runs(dst int) (starts, counts []int) {
	starts = make([]int, len(pl.bufPos))
	counts = make([]int, len(pl.bufPos))
	for q := range starts {
		starts[q] = int(pl.rank[q][dst])
		counts[q] = pl.runLen(q, dst)
	}
	return starts, counts
}

// differs locates the first histogram entry that disagrees with what the
// plan was built from — bufPos is the rows' prefix sums, so it still
// holds them — or returns nil. The paranoid check of a shared plan.
func (pl *chunkPlan) differs(hists [][]int32) *inputDiff {
	for i, row := range hists {
		for d, c := range row {
			if built := pl.bufPos[i][d+1] - pl.bufPos[i][d]; built != int64(c) {
				return &inputDiff{row: i, col: d, shared: built, own: int64(c)}
			}
		}
	}
	return nil
}
