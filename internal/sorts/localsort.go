package sorts

import (
	"repro/internal/keys"
	"repro/internal/machine"
)

// countPass builds the histogram of the pass-th digit of
// arr.Data[lo:lo+n], charging one sequential key sweep plus per-key
// histogram accesses. hist is the processor's private histogram array,
// modeled in the simulated address space so its cache footprint is
// charged — the radix-size tradeoff depends on it. firstClass prices the
// key reads' misses.
func countPass(p *machine.Proc, arr *machine.Array[uint32], lo, n int,
	pass int, cfg Config, hist *machine.Array[int32], firstClass machine.Sharing) []int32 {
	b := cfg.Buckets()
	for j := 0; j < b; j++ {
		hist.Data[j] = 0
	}
	hist.StoreRange(p, 0, b, machine.Private)
	p.Compute(b)
	// One kernel call charges the whole counting loop: per key, the
	// sequential key read, the digit extraction, the histogram access and
	// increment, and CountOpsPerKey ops. Bit-identical to the
	// per-element loop it replaced.
	p.CountStream(arr, lo, n, firstClass,
		uint(pass*cfg.Radix), uint32(b-1), hist, machine.Private, CountOpsPerKey)
	out := make([]int32, b)
	copy(out, hist.Data)
	return out
}

// permutePass scatters arr.Data[lo:lo+n] into dst according to pos,
// where pos[d] is the (mutable) next destination index for digit d.
// Destination stores are priced with dstClass; key re-reads with
// srcClass. pos is advanced in place.
func permutePass(p *machine.Proc, arr, dst *machine.Array[uint32], lo, n int,
	pass int, cfg Config, hist *machine.Array[int32], pos []int64,
	srcClass, dstClass machine.Sharing) {
	// One kernel call charges the whole permutation loop: per key, the
	// sequential read, the digit extraction, the position-counter access
	// and bump, the scattered destination write, and PermuteOpsPerKey ops.
	p.PermuteStream(arr, dst, lo, n,
		uint(pass*cfg.Radix), uint32(cfg.Buckets()-1), hist, pos,
		srcClass, machine.Private, dstClass, PermuteOpsPerKey)
}

// exclusiveScan turns counts into exclusive prefix positions starting at
// base, charging the scan.
func exclusiveScan(p *machine.Proc, counts []int32, base int64) []int64 {
	pos := make([]int64, len(counts))
	run := base
	for d, c := range counts {
		pos[d] = run
		run += int64(c)
	}
	p.Compute(2 * len(counts))
	return pos
}

// localRadixSort sorts arr.Data[lo:lo+n] ascending using
// keys.Passes(cfg.Radix) counting passes that toggle between arr and tmp
// (same index range). It returns true when the sorted result ended up in
// tmp. firstClass
// prices the very first sweep's key reads (later sweeps read data this
// processor itself wrote: Private).
func localRadixSort(p *machine.Proc, arr, tmp *machine.Array[uint32], lo, n int,
	cfg Config, hist *machine.Array[int32], firstClass machine.Sharing) (inTmp bool) {
	if n <= 0 {
		return false
	}
	cur, nxt := arr, tmp
	class := firstClass
	for pass := 0; pass < keys.Passes(cfg.Radix); pass++ {
		counts := countPass(p, cur, lo, n, pass, cfg, hist, class)
		pos := exclusiveScan(p, counts, int64(lo))
		permutePass(p, cur, nxt, lo, n, pass, cfg, hist, pos, class, machine.Private)
		cur, nxt = nxt, cur
		class = machine.Private
	}
	return cur == tmp
}

// SeqRadix runs the sequential radix sort the paper uses as the speedup
// baseline for both algorithms (Table 1) on processor 0 of m, a
// 1-processor machine as its Variants() row states; any other processor
// returns at once.
func SeqRadix(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	return runProgram(m, keysIn, cfg, seqLayout{}, algRadix, nil, func(p *machine.Proc, st *store, cfg Config, _ int) part {
		if p.ID != 0 {
			return part{arr: st.keys.part[0].arr}
		}
		p.SetPhase("localsort")
		sorted := sortLocal(p, st, cfg)
		p.SetPhase("")
		return sorted.part[0]
	})
}

// seqLayout keeps the whole baseline on processor 0: one partition of
// all n keys, its scratch twin and one histogram.
type seqLayout struct{}

func (seqLayout) model() string { return "seq" }

func (seqLayout) alloc(m *machine.Machine, cfg Config, _ algorithm, n, _ int) *store {
	whole := func(name string) *partitioned {
		return &partitioned{part: []part{{arr: machine.NewArrayOnProc[uint32](m, name, n, 0), n: n}}}
	}
	st := &store{keys: whole("seq.keys"), tmp: whole("seq.tmp")}
	st.hist = []*machine.Array[int32]{machine.NewArrayOnProc[int32](m, "seq.hist", cfg.Buckets(), 0)}
	return st
}
