package keys

import (
	"math"
	"testing"
)

// The summary statistics below describe a key stream the way the sorting
// programs see it. Only these tests use them, to check the generators'
// shapes, so they live beside the tests.

// BucketCounts histograms keys by their radix-r digit at the given pass
// (the distribution radix sort's communication volume depends on).
func BucketCounts(keys []uint32, pass, radixBits int) []int64 {
	b := 1 << radixBits
	mask := uint32(b - 1)
	shift := uint(pass * radixBits)
	out := make([]int64, b)
	for _, k := range keys {
		out[(k>>shift)&mask]++
	}
	return out
}

// MovedFraction returns the fraction of keys whose first-digit bucket
// maps to a different processor than the one initially holding them —
// the communication volume of radix sort's first pass under blocked
// bucket assignment. The local distribution yields ~0; remote ~1.
func MovedFraction(keys []uint32, procs, radixBits int) float64 {
	if len(keys) == 0 {
		return 0
	}
	buckets := 1 << radixBits
	perProc := buckets / procs
	if perProc == 0 {
		perProc = 1
	}
	mask := uint32(buckets - 1)
	moved := 0
	for i, k := range keys {
		// Index i is owned by the processor whose blocked slice
		// [p*n/P, (p+1)*n/P) contains it: the smallest p with
		// (p+1)*n/P > i, i.e. floor((i*P+P-1)/n). Plain i*P/n is wrong
		// when P does not divide n — it assigns boundary indices to the
		// previous processor (n=10, P=4: index 2 belongs to processor 1's
		// slice [2,5) but 2*4/10 = 0) and under-counts moved keys.
		owner := (i*procs + procs - 1) / len(keys)
		dest := int(k&mask) / perProc
		if dest >= procs {
			dest = procs - 1
		}
		if dest != owner {
			moved++
		}
	}
	return float64(moved) / float64(len(keys))
}

// Imbalance returns max/mean over a bucket histogram (1 = perfectly
// balanced). Sample sort's receive imbalance and radix sort's partition
// skew both reduce to this.
func Imbalance(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, maxV int64
	for _, c := range counts {
		sum += c
		if c > maxV {
			maxV = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(maxV) / mean
}

// Entropy returns the Shannon entropy (bits) of a bucket histogram,
// normalized by the maximum log2(len(counts)); 1 means uniform.
func Entropy(counts []int64) float64 {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum == 0 || len(counts) < 2 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(sum)
		h -= p * math.Log2(p)
	}
	return h / math.Log2(float64(len(counts)))
}

// SortednessRuns returns the number of maximal non-decreasing runs; 1
// means fully sorted, n means strictly decreasing. The remote/local
// distributions' local-sort advantage shows up as a low run count per
// processor chunk.
func SortednessRuns(keys []uint32) int {
	if len(keys) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			runs++
		}
	}
	return runs
}

func TestBucketCounts(t *testing.T) {
	keys := []uint32{0, 1, 255, 256, 257}
	counts := BucketCounts(keys, 0, 8)
	if counts[0] != 2 || counts[1] != 2 || counts[255] != 1 {
		t.Errorf("pass 0 counts wrong: %v %v %v", counts[0], counts[1], counts[255])
	}
	counts = BucketCounts(keys, 1, 8)
	if counts[0] != 3 || counts[1] != 2 {
		t.Errorf("pass 1 counts wrong: %v %v", counts[0], counts[1])
	}
}

func TestMovedFractionExtremes(t *testing.T) {
	const n, p, r = 8000, 8, 8
	local := MustGenerate(Local, GenConfig{N: n, Procs: p, RadixBits: r})
	remote := MustGenerate(Remote, GenConfig{N: n, Procs: p, RadixBits: r})
	gauss := MustGenerate(Gauss, GenConfig{N: n, Procs: p, RadixBits: r})

	if f := MovedFraction(local, p, r); f != 0 {
		t.Errorf("local moved fraction = %v, want 0", f)
	}
	if f := MovedFraction(remote, p, r); f != 1 {
		t.Errorf("remote moved fraction = %v, want 1", f)
	}
	// A realistic distribution moves about (p-1)/p of its keys.
	want := float64(p-1) / float64(p)
	if f := MovedFraction(gauss, p, r); f < want-0.1 || f > want+0.1 {
		t.Errorf("gauss moved fraction = %v, want ~%v", f, want)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int64{10, 10, 10, 10}); got != 1 {
		t.Errorf("balanced imbalance = %v", got)
	}
	if got := Imbalance([]int64{40, 0, 0, 0}); got != 4 {
		t.Errorf("all-in-one imbalance = %v", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Errorf("empty imbalance = %v", got)
	}
	if got := Imbalance([]int64{0, 0}); got != 0 {
		t.Errorf("zero imbalance = %v", got)
	}
}

func TestEntropyShapes(t *testing.T) {
	const n, p, r = 32768, 8, 8
	random := MustGenerate(Random, GenConfig{N: n, Procs: p, RadixBits: r})
	zero := MustGenerate(Zero, GenConfig{N: n, Procs: p, RadixBits: r})
	hRandom := Entropy(BucketCounts(random, 0, r))
	hZero := Entropy(BucketCounts(zero, 0, r))
	if hRandom < 0.99 {
		t.Errorf("random first-digit entropy = %v, want ~1", hRandom)
	}
	if hZero >= hRandom {
		t.Errorf("zero-spiked entropy (%v) should be below uniform (%v)", hZero, hRandom)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
	if got := Entropy([]int64{5}); got != 0 {
		t.Errorf("single-bucket entropy = %v", got)
	}
}

func TestSortednessRuns(t *testing.T) {
	if got := SortednessRuns([]uint32{1, 2, 3, 4}); got != 1 {
		t.Errorf("sorted runs = %d", got)
	}
	if got := SortednessRuns([]uint32{4, 3, 2, 1}); got != 4 {
		t.Errorf("reverse runs = %d", got)
	}
	if got := SortednessRuns(nil); got != 0 {
		t.Errorf("empty runs = %d", got)
	}
	if got := SortednessRuns([]uint32{2, 2, 2}); got != 1 {
		t.Errorf("equal keys runs = %d", got)
	}
}

func TestHalfHalvesOccupiedBuckets(t *testing.T) {
	// The half distribution's purpose: odd first-digit buckets are empty,
	// halving radix sort's message count at fixed volume.
	const n, p, r = 32768, 8, 8
	half := MustGenerate(Half, GenConfig{N: n, Procs: p, RadixBits: r})
	counts := BucketCounts(half, 0, r)
	for d := 1; d < len(counts); d += 2 {
		if counts[d] != 0 {
			t.Fatalf("odd bucket %d non-empty: %d", d, counts[d])
		}
	}
	occupied := 0
	for _, c := range counts {
		if c > 0 {
			occupied++
		}
	}
	if occupied == 0 || occupied > len(counts)/2 {
		t.Errorf("occupied buckets = %d, want at most half of %d", occupied, len(counts))
	}
}

func TestBucketDistributionPreSortedPerProcessor(t *testing.T) {
	// The bucket distribution's partitions hold p ascending-range runs:
	// low sortedness-run count relative to random data.
	const n, p, r = 16384, 8, 8
	bucket := MustGenerate(Bucket, GenConfig{N: n, Procs: p, RadixBits: r})
	random := MustGenerate(Random, GenConfig{N: n, Procs: p, RadixBits: r})
	lo, hi := 0, n/p
	// Top-bits sortedness: compare run counts of the digit sequences.
	digitsOf := func(ks []uint32) []uint32 {
		out := make([]uint32, len(ks))
		for i, k := range ks {
			out[i] = k >> 23 // top byte of the 31-bit key
		}
		return out
	}
	rb := SortednessRuns(digitsOf(bucket[lo:hi]))
	rr := SortednessRuns(digitsOf(random[lo:hi]))
	if rb >= rr {
		t.Errorf("bucket partition runs (%d) should be below random's (%d)", rb, rr)
	}
}

// TestMovedFractionBlockedOwnership is the regression test for the
// ownership inverse: the owner of index i must be the processor whose
// blocked slice [p*n/P, (p+1)*n/P) contains i, including when P does
// not divide n. The pre-fix i*P/n formula assigned boundary indices to
// the previous processor and under-counted moved keys.
func TestMovedFractionBlockedOwnership(t *testing.T) {
	// Brute-force oracle over the same Bounds partition the sorts use.
	ownerOf := func(i, n, p int) int {
		for proc := 0; proc < p; proc++ {
			lo, hi := Bounds(n, p, proc)
			if i >= lo && i < hi {
				return proc
			}
		}
		t.Fatalf("index %d unowned (n=%d p=%d)", i, n, p)
		return -1
	}
	for _, tc := range []struct{ n, p int }{{10, 4}, {10007, 8}, {77, 16}, {4096, 64}, {9, 3}} {
		for i := 0; i < tc.n; i++ {
			got := (i*tc.p + tc.p - 1) / tc.n
			if want := ownerOf(i, tc.n, tc.p); got != want {
				t.Fatalf("n=%d p=%d: owner(%d) = %d, want %d", tc.n, tc.p, i, got, want)
			}
		}
	}
	// End-to-end on a non-divisible Local stream: every key's first
	// digit maps back to its own processor, so nothing moves. Under the
	// broken inverse this reported a spurious non-zero fraction.
	const n, p, r = 10007, 8, 8
	local := MustGenerate(Local, GenConfig{N: n, Procs: p, RadixBits: r})
	if f := MovedFraction(local, p, r); f != 0 {
		t.Errorf("local moved fraction = %v at non-divisible n, want 0", f)
	}
	remote := MustGenerate(Remote, GenConfig{N: n, Procs: p, RadixBits: r})
	if f := MovedFraction(remote, p, r); f != 1 {
		t.Errorf("remote moved fraction = %v at non-divisible n, want 1", f)
	}
}

// TestStatsUnderDupHeavy audits the summary helpers against the
// duplicate-heavy generator and an all-equal stream: bucket counts must
// cover every key exactly once, the imbalance of an all-equal stream is
// the bucket count (all mass in one bucket), and entropy collapses
// toward 0.
func TestStatsUnderDupHeavy(t *testing.T) {
	const n, p, r = 1 << 14, 8, 8
	dup := MustGenerate(DupHeavy, GenConfig{N: n, Procs: p, RadixBits: r, Seed: 1})
	counts := BucketCounts(dup, 0, r)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != n {
		t.Fatalf("bucket counts sum to %d, want %d", sum, n)
	}
	allEq := make([]uint32, n)
	for i := range allEq {
		allEq[i] = dup[0]
	}
	eqCounts := BucketCounts(allEq, 0, r)
	if got, want := Imbalance(eqCounts), float64(len(eqCounts)); got != want {
		t.Errorf("all-equal imbalance = %v, want %v (single occupied bucket)", got, want)
	}
	if e := Entropy(eqCounts); e != 0 {
		t.Errorf("all-equal entropy = %v, want 0", e)
	}
	if e := Entropy(counts); e <= 0 || e >= 1 {
		t.Errorf("dupheavy entropy = %v, want inside (0, 1)", e)
	}
	if runs := SortednessRuns(allEq); runs != 1 {
		t.Errorf("all-equal stream has %d runs, want 1", runs)
	}
}
