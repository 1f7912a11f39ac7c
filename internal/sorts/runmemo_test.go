package sorts

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// memoTake is one processor's take of one shared step, as the observer
// hook saw it.
type memoTake struct {
	// id is the address of the value taken: the plan a *chunkPlan points
	// at, or the sample pool's backing array.
	id    uintptr
	built bool
}

// TestPlanBuiltOncePerStep runs every program of the table and watches
// the run memo: a radix sort over mpi or shmem builds one exchange plan
// per pass, PSRS one, sample sort over mpi or shmem one merged sample
// pool — each built by exactly one processor and handed, the same value,
// to all P — and the CC-SAS radix and sample sorts, whose processors
// each hold a view of their own, share nothing. No step outlives its
// run. Scheduling must not matter: one host thread or eight (run under
// -race in CI).
func TestPlanBuiltOncePerStep(t *testing.T) {
	var (
		mu    sync.Mutex
		takes map[*runMemo]map[int][]memoTake
	)
	memoObserver = func(r *runMemo, _, step int, value any, built bool) {
		mu.Lock()
		defer mu.Unlock()
		if takes[r] == nil {
			takes[r] = make(map[int][]memoTake)
		}
		takes[r][step] = append(takes[r][step], memoTake{reflect.ValueOf(value).Pointer(), built})
	}
	defer func() { memoObserver = nil }()

	const radix = 8
	passes := Config{Radix: radix}.Passes()
	for _, mc := range []struct {
		procs   int
		machine func(*testing.T, int) *machine.Machine
		anyP    bool // a fat-tree at a processor count CC-SAS cannot use
	}{
		{8, scaled, false}, {64, scaled, false},
		{3, contractMachine, true}, {12, contractMachine, true},
	} {
		in := genKeys(t, keys.Gauss, 64*mc.procs+5, mc.procs, radix)
		for _, v := range Variants() {
			ccsas := strings.HasPrefix(v.Model, "ccsas")
			if v.Model == "seq" || mc.anyP && ccsas {
				continue
			}
			want := 1
			switch {
			case v.Algorithm == "radix" && ccsas, v.Algorithm == "sample" && ccsas:
				want = 0
			case v.Algorithm == "radix":
				want = passes
			}
			for _, threads := range []int{1, 8} {
				id := fmt.Sprintf("%s/%s P=%d GOMAXPROCS=%d", v.Algorithm, v.Model, mc.procs, threads)
				takes = make(map[*runMemo]map[int][]memoTake)
				prev := runtime.GOMAXPROCS(threads)
				_, err := v.Sort(mc.machine(t, mc.procs), in, Config{Radix: radix, MPI: mpi.ConfigFor(v.Engine)})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				steps := 0
				for r, byStep := range takes {
					steps += len(byStep)
					for step, ts := range byStep {
						builds := 0
						for _, tk := range ts {
							if tk.built {
								builds++
							}
							if tk.id != ts[0].id {
								t.Errorf("%s: step %d handed processors different values", id, step)
								break
							}
						}
						if len(ts) != mc.procs || builds != 1 {
							t.Errorf("%s: step %d taken by %d processors and built %d times, want %d and 1",
								id, step, len(ts), builds, mc.procs)
						}
					}
					if len(r.live) != 0 {
						t.Errorf("%s: %d steps still live after the run", id, len(r.live))
					}
				}
				if len(takes) > 1 || steps != want {
					t.Errorf("%s: %d shared steps in %d memos, want %d in one", id, steps, len(takes), want)
				}
			}
		}
	}
}

// paranoidMachine is scaled with the paranoid checker on.
func paranoidMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	cfg := machine.Origin2000Scaled(procs)
	cfg.Paranoid = true
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m
}

// lateVictim orders one shared step on the host so that the victim
// cannot be the processor that builds it: the victim waits in arrive
// until some other processor has left the step.
type lateVictim struct {
	victim int
	once   sync.Once
	taken  chan struct{}
}

func newLateVictim(victim int) *lateVictim {
	return &lateVictim{victim: victim, taken: make(chan struct{})}
}

func (l *lateVictim) arrive(p *machine.Proc) {
	if p.ID == l.victim {
		<-l.taken
	}
}

func (l *lateVictim) leave(p *machine.Proc) {
	if p.ID != l.victim {
		l.once.Do(func() { close(l.taken) })
	}
}

// divergentRows is an MPI backend whose first allgather hands one
// processor a histogram row the others never saw: the failure a broken
// collective would produce, and the one sharing a plan would hide.
type divergentRows struct {
	*mpiBackend
	order *lateVictim
	done  bool // the victim's own flag
}

func (b *divergentRows) histograms(p *machine.Proc, counts []int32) *chunkPlan {
	rows := mpi.Allgather(b.c, p, counts)
	b.order.arrive(p)
	if p.ID == b.order.victim && !b.done {
		b.done = true
		bad := slices.Clone(rows[2])
		bad[3]++
		rows[2] = bad
	}
	pl := b.memo.plan(p, rows, b.parts)
	b.order.leave(p)
	return pl
}

// oneViolation fails unless the checker holds exactly one violation, a
// replicated-input mismatch by proc whose Fast text locates where.
func oneViolation(t *testing.T, ck *check.Checker, proc int, phase, where string) {
	t.Helper()
	vs := ck.Violations()
	if ck.Count() != 1 || len(vs) != 1 {
		t.Fatalf("%d violations, want exactly one: %v", ck.Count(), ck.Err())
	}
	v := vs[0]
	if v.Kind != check.KindReplicatedInput || v.Proc != proc || v.Phase != phase || !strings.Contains(v.Fast, where) {
		t.Fatalf("violation %v; want %s by proc %d in phase %q at %q", v, check.KindReplicatedInput, proc, phase, where)
	}
}

// TestParanoidCatchesDivergentInputs is the mutation test of the
// sharing: a processor whose gathered rows, or collected sample pool,
// differ from what the shared value was built from is named by a
// replicated-input-mismatch violation, and a clean paranoid run reports
// nothing.
func TestParanoidCatchesDivergentInputs(t *testing.T) {
	const procs, victim = 8, 5
	in := genKeys(t, keys.Gauss, 1<<12, procs, 8)

	m := paranoidMachine(t, procs)
	res, err := radixSort(m, in, Config{Radix: 8}, &divergentRows{mpiBackend: &mpiBackend{}, order: newLateVictim(victim)})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res) // everyone used the plan of the true rows
	oneViolation(t, m.Checker(), victim, "histogram", "step=0 row=2 col=3 ")

	m = paranoidMachine(t, procs)
	memo, order := newRunMemo(m), newLateVictim(victim)
	m.Run(func(p *machine.Proc) {
		p.SetPhase("splitters")
		pool := []uint32{5, 1, 9, 3}
		order.arrive(p)
		if p.ID == victim {
			pool[2] = 8
		}
		memo.mergedPool(p, func() []uint32 { return slices.Clone(pool) })
		order.leave(p)
	})
	oneViolation(t, m.Checker(), victim, "splitters", "step=0 row=0 col=3 shared=9")

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
