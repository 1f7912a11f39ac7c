package sorts

import (
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
)

// scaled builds the standard scaled experiment machine.
func scaled(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Origin2000Scaled(procs))
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m
}

// mustRun runs body on m and fails the test if the run failed.
func mustRun(tb testing.TB, m *machine.Machine, body func(p *machine.Proc)) *machine.Result {
	tb.Helper()
	res, err := m.Run(body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// genKeys produces n keys of distribution d for the given machine size.
func genKeys(t *testing.T, d keys.Dist, n, procs, radix int) []uint32 {
	t.Helper()
	return keys.MustGenerate(d, keys.GenConfig{N: n, Procs: procs, RadixBits: radix})
}

// checkSorted verifies res.Sorted is an ascending permutation of in.
func checkSorted(t *testing.T, in []uint32, res *Result) {
	t.Helper()
	if len(res.Sorted) != len(in) {
		t.Fatalf("%s/%s: output length %d, want %d", res.Algorithm, res.Model, len(res.Sorted), len(in))
	}
	for i := 1; i < len(res.Sorted); i++ {
		if res.Sorted[i-1] > res.Sorted[i] {
			t.Fatalf("%s/%s: not sorted at %d: %d > %d",
				res.Algorithm, res.Model, i, res.Sorted[i-1], res.Sorted[i])
		}
	}
	want := append([]uint32(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if res.Sorted[i] != want[i] {
			t.Fatalf("%s/%s: not a permutation of the input at %d: got %d want %d",
				res.Algorithm, res.Model, i, res.Sorted[i], want[i])
		}
	}
}

// TestConfigPasses: a Config's radix sets how many passes the radix sort
// runs, ceil(31/r). Over MPI each pass shares one exchange plan, so every
// processor's shared-step tally is the pass count.
func TestConfigPasses(t *testing.T) {
	cases := []struct{ radix, passes int }{
		{8, 4}, {11, 3}, {12, 3}, {7, 5}, {6, 6}, {16, 2},
	}
	const procs = 4
	for _, c := range cases {
		in := genKeys(t, keys.Random, 64*procs, procs, c.radix)
		counter := &stepCounter{backend: &mpiBackend{}}
		res, err := radixSort(scaled(t, procs), in, Config{Radix: c.radix}, counter)
		if err != nil {
			t.Fatalf("radix %d: %v", c.radix, err)
		}
		checkSorted(t, in, res)
		for i, n := range counter.steps {
			if n != c.passes {
				t.Errorf("radix %d: processor %d ran %d passes, want %d", c.radix, i, n, c.passes)
			}
		}
	}
}

func TestSeqRadixSorts(t *testing.T) {
	for _, d := range []keys.Dist{keys.Gauss, keys.Random, keys.Zero} {
		m := scaled(t, 1)
		in := genKeys(t, d, 5000, 1, 8)
		res, err := SeqRadix(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatalf("SeqRadix(%v): %v", d, err)
		}
		checkSorted(t, in, res)
		if res.TimeNs() <= 0 {
			t.Errorf("%v: no simulated time", d)
		}
	}
}

func TestSeqRadixOddPasses(t *testing.T) {
	// Radix 11 -> 3 passes: result lands in tmp; verify the copy-out.
	m := scaled(t, 1)
	in := genKeys(t, keys.Random, 3000, 1, 11)
	res, err := SeqRadix(m, in, Config{Radix: 11})
	if err != nil {
		t.Fatalf("SeqRadix: %v", err)
	}
	checkSorted(t, in, res)
}

func TestSeqRadixValidation(t *testing.T) {
	m := scaled(t, 1)
	if _, err := SeqRadix(m, []uint32{3, 1}, Config{Radix: 99}); err == nil {
		t.Error("accepted radix 99")
	}
	// The baseline's row is the only one that states a processor count.
	for _, v := range Variants() {
		want := 0
		if v.Model == "seq" {
			want = 1
		}
		if v.Procs != want {
			t.Errorf("%s/%s: Procs = %d, want %d", v.Algorithm, v.Model, v.Procs, want)
		}
	}
}

func TestSeqRadixCapacityEffect(t *testing.T) {
	// Simulated time per key must grow once the working set blows the
	// (scaled) cache: the superlinear-speedup mechanism of the paper.
	perKey := func(n int) float64 {
		m := scaled(t, 1)
		in := genKeys(t, keys.Gauss, n, 1, 8)
		res, err := SeqRadix(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatalf("SeqRadix: %v", err)
		}
		return res.TimeNs() / float64(n)
	}
	small := perKey(4096)   // 16 KB data + tmp: inside 64 KB cache
	large := perKey(262144) // 1 MB data: far beyond cache and TLB reach
	if large < 1.5*small {
		t.Errorf("per-key cost small=%v large=%v: expected capacity penalty >= 1.5x", small, large)
	}
}

func TestSeqRadixDeterministic(t *testing.T) {
	run := func() float64 {
		m := scaled(t, 1)
		in := genKeys(t, keys.Gauss, 10000, 1, 8)
		res, err := SeqRadix(m, in, Config{Radix: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeNs()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

// TestSeqRadixLeavesOtherProcsIdle: on a machine with more than one
// processor the baseline still sorts every key on processor 0, and the
// others charge nothing.
func TestSeqRadixLeavesOtherProcsIdle(t *testing.T) {
	m := scaled(t, 2)
	in := genKeys(t, keys.Gauss, 4096, 2, 8)
	res, err := SeqRadix(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res)
	if got := res.Run.PerProc[0].Breakdown.Total(); got <= 0 {
		t.Errorf("processor 0 charged %v ns", got)
	}
	idle := res.Run.PerProc[1]
	if idle.Breakdown != (machine.Breakdown{}) || len(idle.Phases) != 0 ||
		idle.CacheAccesses != 0 || idle.Traffic.Messages != 0 {
		t.Errorf("processor 1 charged %+v, phases %v, %d accesses, %d messages",
			idle.Breakdown, idle.Phases, idle.CacheAccesses, idle.Traffic.Messages)
	}
}
