package sorts

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// allPrograms runs every parallel sorting program of the Variants table
// on the given input and verifies the output.
func allPrograms(t *testing.T, m func() *machine.Machine, in []uint32, cfg Config) {
	t.Helper()
	for _, v := range Variants() {
		if v.Model == "seq" {
			continue
		}
		cfg.MPI = mpi.ConfigFor(v.Engine)
		res, err := v.Sort(m(), in, cfg)
		if err != nil {
			t.Fatalf("%s-%s: %v", v.Algorithm, v.Model, err)
		}
		checkSorted(t, in, res)
	}
}

func TestUnevenPartitions(t *testing.T) {
	// n not divisible by the processor count: partitions differ in size.
	const n, procs = 10007, 8
	in := genKeys(t, keys.Random, n, procs, 8)
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestTinyInput(t *testing.T) {
	// Fewer keys than a histogram's buckets; some partitions nearly empty.
	const n, procs = 100, 8
	in := genKeys(t, keys.Random, n, procs, 8)
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestFewerKeysThanSamples(t *testing.T) {
	// n < procs²: the classic PSRS degenerate case — the pivot pool holds
	// fewer than P samples per processor, so pivot positions clamp and
	// several pivots coincide.
	const n, procs = 48, 8 // 48 < 64 = procs²
	in := genKeys(t, keys.Random, n, procs, 8)
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestFewerKeysThanProcs(t *testing.T) {
	// n < procs: most partitions are empty; some processors publish no
	// samples at all and receive nothing in the exchange.
	const n, procs = 5, 8
	in := genKeys(t, keys.Random, n, procs, 8)
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestAllEqualKeys(t *testing.T) {
	// Degenerate duplicates: every key identical. Sample sort's splitters
	// all coincide and one processor receives everything.
	const n, procs = 4096, 4
	in := make([]uint32, n)
	for i := range in {
		in[i] = 12345
	}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestAlreadySortedInput(t *testing.T) {
	const n, procs = 4096, 4
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i * 7)
	}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestReverseSortedInput(t *testing.T) {
	const n, procs = 4096, 4
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32((n - i) * 13)
	}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestMaxValueKeys(t *testing.T) {
	// Keys at the top of the 31-bit range exercise the highest digit.
	const n, procs = 2048, 4
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(keys.MaxKey - 1 - uint64(i%97))
	}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

func TestRadixSweepAllSorted(t *testing.T) {
	// Every radix size the paper studies produces a correct sort.
	in := genKeys(t, keys.Gauss, 1<<13, 4, 8)
	for r := 6; r <= 12; r++ {
		m := scaled(t, 4)
		res, err := RadixSHMEM(m, in, Config{Radix: r})
		if err != nil {
			t.Fatalf("radix %d: %v", r, err)
		}
		checkSorted(t, in, res)
	}
}

func TestTwoProcessorsMinimalParallel(t *testing.T) {
	in := genKeys(t, keys.Gauss, 4096, 2, 8)
	allPrograms(t, func() *machine.Machine { return scaled(t, 2) }, in, Config{Radix: 8})
}

func TestSampleSortZeroDistributionImbalance(t *testing.T) {
	// The zero distribution sends ~10% of all keys (the zeros) to the
	// first processor: receive buffers must grow beyond n/p.
	const n, procs = 1 << 14, 8
	in := genKeys(t, keys.Zero, n, procs, 8)
	m := scaled(t, procs)
	res, err := SampleCCSAS(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res)
	// Proc 0's received count exceeds the balanced share.
	zeros := 0
	for _, k := range in {
		if k == 0 {
			zeros++
		}
	}
	if zeros <= n/procs {
		t.Skip("distribution produced too few zeros for the imbalance check")
	}
}

func TestSeqRadixEmptyAndSingle(t *testing.T) {
	m := scaled(t, 1)
	res, err := SeqRadix(m, []uint32{42}, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sorted) != 1 || res.Sorted[0] != 42 {
		t.Errorf("single-key sort = %v", res.Sorted)
	}
}

func TestResultMetadata(t *testing.T) {
	m := scaled(t, 4)
	in := genKeys(t, keys.Gauss, 4096, 4, 8)
	res, err := RadixSHMEM(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "radix" || res.Model != "shmem" {
		t.Errorf("metadata = %s/%s", res.Algorithm, res.Model)
	}
	if res.TimeNs() != res.Run.TimeNs {
		t.Error("TimeNs accessor mismatch")
	}
}

// TestSkewDistsAllPrograms runs every parallel program on each of the
// four skew generators at an uneven size, verifying outputs against the
// reference ordering.
func TestSkewDistsAllPrograms(t *testing.T) {
	const n, procs = 10007, 8
	for _, d := range keys.SkewDists {
		in := genKeys(t, d, n, procs, 8)
		allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
	}
}

// TestDupHeavyFewerKeysThanProcs: two distinct values at n < procs —
// empty partitions plus massive value collisions at once.
func TestDupHeavyFewerKeysThanProcs(t *testing.T) {
	const procs = 8
	in := []uint32{1 << 30, 7, 1 << 30, 7, 7}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}

// TestDupHeavyAllEqual: all-equal keys — sample sort's splitters all
// coincide and the tie-spreading boundary logic must still balance the
// exchange.
func TestDupHeavyAllEqual(t *testing.T) {
	const n, procs = 4096, 8
	in := make([]uint32, n)
	for i := range in {
		in[i] = 0x2a5a5a5a
	}
	allPrograms(t, func() *machine.Machine { return scaled(t, procs) }, in, Config{Radix: 8})
}
