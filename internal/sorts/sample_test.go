package sorts

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

type sampleRunner struct {
	name string
	fn   func(m *machine.Machine, in []uint32, cfg Config) (*Result, error)
}

func sampleRunners() []sampleRunner {
	return []sampleRunner{
		{"ccsas", SampleCCSAS},
		{"mpi", SampleMPI},
		{"shmem", SampleSHMEM},
	}
}

func TestSampleSortsAllModels(t *testing.T) {
	for _, r := range sampleRunners() {
		for _, procs := range []int{2, 4, 8} {
			m := scaled(t, procs)
			in := genKeys(t, keys.Gauss, 1<<14, procs, 8)
			res, err := r.fn(m, in, Config{Radix: 8})
			if err != nil {
				t.Fatalf("sample %s (p=%d): %v", r.name, procs, err)
			}
			checkSorted(t, in, res)
		}
	}
}

func TestSampleAllDistributions(t *testing.T) {
	// Includes zero (heavy duplicates -> massive imbalance toward the
	// first processor) and bucket/stagger (pre-ranged) stress cases.
	for _, r := range sampleRunners() {
		for _, d := range keys.AllDists {
			m := scaled(t, 4)
			in := genKeys(t, d, 1<<13, 4, 8)
			res, err := r.fn(m, in, Config{Radix: 8})
			if err != nil {
				t.Fatalf("sample %s (%v): %v", r.name, d, err)
			}
			checkSorted(t, in, res)
		}
	}
}

func TestSampleUniprocessorIsLocalSort(t *testing.T) {
	for _, r := range sampleRunners() {
		m := scaled(t, 1)
		in := genKeys(t, keys.Random, 4000, 1, 8)
		res, err := r.fn(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatalf("sample %s (p=1): %v", r.name, err)
		}
		checkSorted(t, in, res)
	}
}

func TestSampleDeterministic(t *testing.T) {
	for _, r := range sampleRunners() {
		run := func() float64 {
			m := scaled(t, 8)
			in := genKeys(t, keys.Gauss, 1<<13, 8, 8)
			res, err := r.fn(m, in, Config{Radix: 8})
			if err != nil {
				t.Fatal(err)
			}
			return res.TimeNs()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("sample %s non-deterministic: %v vs %v", r.name, a, b)
		}
	}
}

func TestSampleDoesTwoLocalSorts(t *testing.T) {
	// Sample sort does roughly double radix sort's local sorting work;
	// its BUSY time should exceed radix sort's on the same input. (Large
	// input: at small sizes radix's per-chunk library overheads dominate
	// BUSY instead.)
	in := genKeys(t, keys.Gauss, 1<<17, 8, 8)
	rad, err := RadixSHMEM(scaled(t, 8), in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := SampleSHMEM(scaled(t, 8), in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	radBusy := rad.Run.TotalBreakdown().Busy
	smpBusy := smp.Run.TotalBreakdown().Busy
	if smpBusy <= radBusy {
		t.Errorf("sample BUSY (%v) should exceed radix BUSY (%v): two local sorts", smpBusy, radBusy)
	}
}

func TestSampleFewerMessagesThanRadix(t *testing.T) {
	// One message per pair for sample vs up to 2^r/p per pair for radix.
	in := genKeys(t, keys.Gauss, 1<<15, 8, 8)
	cfg := Config{Radix: 8, MPI: mpi.DefaultDirect()}
	rad, err := RadixMPI(scaled(t, 8), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := SampleMPI(scaled(t, 8), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var radMsgs, smpMsgs int64
	for i := 0; i < 8; i++ {
		radMsgs += rad.Run.PerProc[i].Traffic.Messages
		smpMsgs += smp.Run.PerProc[i].Traffic.Messages
	}
	if smpMsgs >= radMsgs {
		t.Errorf("sample messages (%d) should be fewer than radix messages (%d)", smpMsgs, radMsgs)
	}
}

func TestSampleBoundaries(t *testing.T) {
	m := scaled(t, 1)
	arr := machine.NewArrayOnProc[uint32](m, "b", 8, 0)
	copy(arr.Data, []uint32{1, 3, 3, 5, 7, 9, 11, 13})
	var got []int64
	mustRun(t, m, func(p *machine.Proc) {
		got = boundariesOf(p, arr, 0, 8, []uint32{3, 8, 100})
	})
	// Keys >= 3 start at index 1; >= 8 at index 5; >= 100 at 8.
	want := []int64{0, 1, 5, 8, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", got, want)
		}
	}
}

func TestSelectSamplesEvenAndSorted(t *testing.T) {
	m := scaled(t, 1)
	arr := machine.NewArrayOnProc[uint32](m, "s", 1000, 0)
	for i := range arr.Data {
		arr.Data[i] = uint32(i * 2)
	}
	mustRun(t, m, func(p *machine.Proc) {
		s := selectSamples(p, arr, 0, 1000, 10)
		if len(s) != 10 {
			t.Fatalf("got %d samples", len(s))
		}
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				t.Fatalf("samples from sorted data not sorted: %v", s)
			}
		}
		// More samples than keys: truncate.
		s2 := selectSamples(p, arr, 0, 5, 100)
		if len(s2) != 5 {
			t.Fatalf("oversampling returned %d", len(s2))
		}
	})
}

func TestSplittersFrom(t *testing.T) {
	m := scaled(t, 1)
	mustRun(t, m, func(p *machine.Proc) {
		all := make([]uint32, 100)
		for i := range all {
			all[i] = uint32(i)
		}
		spl := splittersFrom(p, all, 4)
		if len(spl) != 3 {
			t.Fatalf("got %d splitters", len(spl))
		}
		if spl[0] != 25 || spl[1] != 50 || spl[2] != 75 {
			t.Fatalf("splitters = %v", spl)
		}
	})
}
