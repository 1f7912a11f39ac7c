package sorts

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// stepCounter is a backend that counts the shared steps the backend it
// wraps takes in the three methods that may take one: a probe step
// before and after each call brackets the ordinals the call used.
type stepCounter struct {
	backend
	steps []int // steps[i] is processor i's tally
}

func (s *stepCounter) alloc(m *machine.Machine, cfg Config, alg algorithm, n, perProc int) *store {
	s.steps = make([]int, m.Procs())
	return s.backend.alloc(m, cfg, alg, n, perProc)
}

// counted runs call and adds the shared steps it took to p's tally.
func counted[T any](s *stepCounter, p *machine.Proc, call func() T) T {
	probe := func() int {
		_, step := machine.Share(p, func() bool { return true })
		return step
	}
	before := probe()
	v := call()
	s.steps[p.ID] += probe() - before - 1
	return v
}

func (s *stepCounter) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	return counted(s, p, func() *chunkPlan { return s.backend.histograms(p, counts) })
}

func (s *stepCounter) splitters(p *machine.Proc, samples []uint32) []uint32 {
	return counted(s, p, func() []uint32 { return s.backend.splitters(p, samples) })
}

func (s *stepCounter) routes(p *machine.Proc, bnd []int64, placed bool) *chunkPlan {
	return counted(s, p, func() *chunkPlan { return s.backend.routes(p, bnd, placed) })
}

// TestSharedStepsPerProgram counts the shared steps of every program: a
// radix sort over mpi or shmem shares one exchange plan per pass, PSRS
// one, sample sort over mpi or shmem one merged sample pool, and the
// CC-SAS radix and sample sorts, whose processors each hold a view of
// their own, nothing. (machine.TestShare checks that a step is built once
// and hands all P processors one value.) Scheduling must not matter: one
// host thread or eight.
func TestSharedStepsPerProgram(t *testing.T) {
	const radix = 8
	passes := keys.Passes(radix)
	type sorter func(*machine.Machine, []uint32, Config, backend) (*Result, error)
	programs := []struct {
		name  string
		sort  sorter
		be    func() backend
		ccsas bool
		want  int
	}{
		{"radix/ccsas", radixSort, func() backend { return &ccsasBackend{} }, true, 0},
		{"radix/ccsas-new", radixSort, func() backend { return &ccsasBackend{buffered: true} }, true, 0},
		{"radix/mpi", radixSort, func() backend { return &mpiBackend{} }, false, passes},
		{"radix/mpi-onemsg", radixSort, func() backend { return &mpiBackend{oneMsg: true} }, false, passes},
		{"radix/shmem", radixSort, func() backend { return &shmemBackend{} }, false, passes},
		{"sample/ccsas", sampleSort, func() backend { return &ccsasBackend{} }, true, 0},
		{"sample/mpi", sampleSort, func() backend { return &mpiBackend{} }, false, 1},
		{"sample/shmem", sampleSort, func() backend { return &shmemBackend{} }, false, 1},
		{"psrs/ccsas", psrsSort, func() backend { return &ccsasBackend{} }, true, 1},
		{"psrs/mpi", psrsSort, func() backend { return &mpiBackend{} }, false, 1},
		{"psrs/shmem", psrsSort, func() backend { return &shmemBackend{put: true} }, false, 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mc := range []struct {
		procs   int
		machine func(*testing.T, int) *machine.Machine
		anyP    bool // a fat-tree at a processor count CC-SAS cannot use
	}{
		{8, scaled, false}, {64, scaled, false},
		{3, contractMachine, true}, {12, contractMachine, true},
	} {
		in := genKeys(t, keys.Gauss, 64*mc.procs+5, mc.procs, radix)
		for _, pr := range programs {
			if mc.anyP && pr.ccsas {
				continue
			}
			for _, threads := range []int{1, 8} {
				id := fmt.Sprintf("%s P=%d GOMAXPROCS=%d", pr.name, mc.procs, threads)
				runtime.GOMAXPROCS(threads)
				counter := &stepCounter{backend: pr.be()}
				res, err := pr.sort(mc.machine(t, mc.procs), in, Config{Radix: radix}, counter)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				checkSorted(t, in, res)
				for i, n := range counter.steps {
					if n != pr.want {
						t.Errorf("%s: processor %d took %d shared steps, want %d", id, i, n, pr.want)
					}
				}
			}
		}
	}
}

// paranoidMachine is scaled with the paranoid checker on.
func paranoidMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	cfg := machine.Origin2000Scaled(procs)
	cfg.ParanoidSampleEvery = 1
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m
}

// arriveAt makes victim reach every episode of m's gate first, so it
// never builds a shared value, or last, so it builds every one.
func arriveAt(m *machine.Machine, victim int, last bool) {
	order := make([]int, 0, m.Procs())
	for i := 0; i < m.Procs(); i++ {
		if i != victim {
			order = append(order, i)
		}
	}
	if last {
		order = append(order, victim)
	} else {
		order = append([]int{victim}, order...)
	}
	m.SetArrivalOrderForTest(func(proc, arrived int) bool { return order[arrived] == proc })
}

// divergentRows is an MPI backend whose first allgather hands the victim
// a histogram row the others never saw: the failure a broken collective
// would produce, and the one sharing a plan would hide.
type divergentRows struct {
	*mpiBackend
	victim int
	done   bool // the victim's own flag
}

func (b *divergentRows) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	rows := mpi.Allgather(b.c, p, counts)
	if p.ID == b.victim && !b.done {
		b.done = true
		bad := slices.Clone(rows[2])
		bad[3]++
		rows[2] = bad
	}
	return sharedPlan(p, rows, b.parts)
}

// wantViolations fails unless the checker holds exactly one violation per
// processor of procs (ascending), each a replicated-input mismatch in
// phase whose Fast text locates where.
func wantViolations(t *testing.T, ck *check.Checker, procs []int, phase, where string) {
	t.Helper()
	vs := ck.Violations()
	if ck.Count() != len(procs) || len(vs) != len(procs) {
		t.Fatalf("%d violations, want %d: %v", ck.Count(), len(procs), ck.Err())
	}
	for i, v := range vs {
		if v.Kind != check.KindReplicatedInput || v.Proc != procs[i] || v.Phase != phase || !strings.Contains(v.Fast, where) {
			t.Errorf("violation %v; want %s by proc %d in phase %q at %q", v, check.KindReplicatedInput, procs[i], phase, where)
		}
	}
}

// TestParanoidCatchesDivergentInputs is the mutation test of the
// sharing: a processor whose gathered rows, or collected sample pool,
// differ from what the shared value was built from is named by a
// replicated-input-mismatch violation, and a clean paranoid run reports
// nothing. The arrival order decides who builds: a victim that arrives
// first is the one processor to report, and a victim that arrives last
// builds from its own inputs, so every other processor reports.
func TestParanoidCatchesDivergentInputs(t *testing.T) {
	const procs, victim = 8, 5
	in := genKeys(t, keys.Gauss, 1<<12, procs, 8)
	var others []int
	for i := 0; i < procs; i++ {
		if i != victim {
			others = append(others, i)
		}
	}

	m := paranoidMachine(t, procs)
	arriveAt(m, victim, false)
	res, err := radixSort(m, in, Config{Radix: 8}, &divergentRows{mpiBackend: &mpiBackend{}, victim: victim})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res) // everyone used the plan of the true rows
	wantViolations(t, m.Checker(), []int{victim}, "histogram", "step=0 row=2 col=3 ")

	// A clean plan, then one the victim builds from a divergent row.
	m = paranoidMachine(t, procs)
	arriveAt(m, victim, true)
	mustRun(t, m, func(p *machine.Proc) {
		p.SetPhase("histogram")
		rows := [][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
		sharedPlan(p, rows, nil)
		if p.ID == victim {
			rows[2] = []int32{9, 10, 11, 13}
		}
		sharedPlan(p, rows, nil)
	})
	wantViolations(t, m.Checker(), others, "histogram", "step=1 row=2 col=3 shared=13")

	for _, last := range []bool{false, true} {
		m = paranoidMachine(t, procs)
		arriveAt(m, victim, last)
		mustRun(t, m, func(p *machine.Proc) {
			p.SetPhase("splitters")
			pool := []uint32{5, 1, 9, 3}
			if p.ID == victim {
				pool[2] = 8
			}
			mergedPool(p, func() []uint32 { return slices.Clone(pool) })
		})
		if last {
			wantViolations(t, m.Checker(), others, "splitters", "step=0 row=0 col=3 shared=8")
		} else {
			wantViolations(t, m.Checker(), []int{victim}, "splitters", "step=0 row=0 col=3 shared=9")
		}
	}

	for _, run := range []func(*machine.Machine, []uint32, Config) (*Result, error){RadixSHMEM, SampleMPI, PsrsCCSAS} {
		m = paranoidMachine(t, procs)
		if _, err := run(m, in, Config{Radix: 8}); err != nil {
			t.Fatal(err)
		}
		if err := m.Checker().Err(); err != nil {
			t.Fatalf("a clean paranoid run reports %v", err)
		}
	}
}

// planBenchHists is one radix pass's histograms on a P-processor
// machine: 65536 keys over 256 digits.
func planBenchHists(P int) [][]int32 {
	rng := rand.New(rand.NewSource(int64(P)))
	hists := make([][]int32, P)
	for i := range hists {
		hists[i] = randomRow(rng, 65536/P, 256, 0)
	}
	return hists
}

var benchSink int

// BenchmarkPlanBuild is what one radix pass pays, once, for its plan.
func BenchmarkPlanBuild(b *testing.B) {
	for _, P := range []int{64, 256} {
		b.Run(fmt.Sprintf("p%d", P), func(b *testing.B) {
			hists, parts := planBenchHists(P), blockedParts(65536, P)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += newChunkPlan(hists, parts).buckets
			}
		})
	}
}

// BenchmarkPlanEach enumerates every pair's runs, as the P processors of
// one exchange do between them.
func BenchmarkPlanEach(b *testing.B) {
	for _, P := range []int{64, 256} {
		b.Run(fmt.Sprintf("p%d", P), func(b *testing.B) {
			pl := newChunkPlan(planBenchHists(P), blockedParts(65536, P))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for src := 0; src < P; src++ {
					for dst := 0; dst < P; dst++ {
						pl.each(src, dst, func(ch chunk) { benchSink += ch.count })
					}
				}
			}
		})
	}
}
