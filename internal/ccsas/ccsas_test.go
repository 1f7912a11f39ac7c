package ccsas

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
	"repro/internal/topology"
)

func world(t *testing.T, procs int) *World {
	t.Helper()
	m, err := machine.New(machine.Origin2000Scaled(procs))
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return NewWorld(m)
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

func TestFlagOrdersTime(t *testing.T) {
	w := world(t, 2)
	f := NewFlag(w)
	res := mustRun(t, w.M, func(p *machine.Proc) {
		if p.ID == 0 {
			p.Compute(10000)
			f.Set(p)
		} else {
			f.Wait(p)
			if p.Now() < 10000*machine.OpNs {
				t.Errorf("waiter released at %v, before setter's work finished", p.Now())
			}
			if p.Stats().Breakdown.Sync == 0 {
				t.Error("waiter charged no sync time")
			}
		}
	})
	_ = res
}

func TestFlagNoWaitWhenLate(t *testing.T) {
	w := world(t, 2)
	f := NewFlag(w)
	mustRun(t, w.M, func(p *machine.Proc) {
		if p.ID == 0 {
			f.Set(p) // sets at ~0
		} else {
			p.Compute(100000) // arrives long after
			before := p.Stats().Breakdown.Sync
			f.Wait(p)
			// Flag was set long ago: only the (already elapsed) propagation
			// could matter, which is in the past, so no sync charge.
			if got := p.Stats().Breakdown.Sync - before; got != 0 {
				t.Errorf("late waiter charged %v sync, want 0", got)
			}
		}
	})
}

// reduceAll runs one PrefixTree episode on every processor and collects
// ranks and totals.
func reduceAll(t *testing.T, procs, buckets int, hist func(id int) []int32) (ranks [][]int32, totals [][]int32) {
	t.Helper()
	w := world(t, procs)
	tree := NewPrefixTree(w, buckets)
	ranks = make([][]int32, procs)
	totals = make([][]int32, procs)
	mustRun(t, w.M, func(p *machine.Proc) {
		r, tot := tree.Reduce(p, hist(p.ID))
		ranks[p.ID] = r
		totals[p.ID] = tot
	})
	return ranks, totals
}

func TestPrefixTreeSmall(t *testing.T) {
	// 4 procs, 2 buckets. hist[i] = [i+1, 10*(i+1)].
	ranks, totals := reduceAll(t, 4, 2, func(id int) []int32 {
		return []int32{int32(id + 1), int32(10 * (id + 1))}
	})
	// total = [1+2+3+4, 10+20+30+40] = [10, 100]
	for i, tot := range totals {
		if tot[0] != 10 || tot[1] != 100 {
			t.Errorf("proc %d totals = %v, want [10 100]", i, tot)
		}
	}
	// rank[i] = exclusive prefix: [0,0], [1,10], [3,30], [6,60]
	want := [][]int32{{0, 0}, {1, 10}, {3, 30}, {6, 60}}
	for i := range ranks {
		if ranks[i][0] != want[i][0] || ranks[i][1] != want[i][1] {
			t.Errorf("proc %d rank = %v, want %v", i, ranks[i], want[i])
		}
	}
}

func TestPrefixTreeSingleProc(t *testing.T) {
	ranks, totals := reduceAll(t, 1, 3, func(id int) []int32 {
		return []int32{5, 6, 7}
	})
	if ranks[0][0] != 0 || ranks[0][1] != 0 || ranks[0][2] != 0 {
		t.Errorf("single-proc rank = %v, want zeros", ranks[0])
	}
	if totals[0][0] != 5 || totals[0][1] != 6 || totals[0][2] != 7 {
		t.Errorf("single-proc total = %v", totals[0])
	}
}

func TestPrefixTreeMatchesSequentialScan(t *testing.T) {
	// Property: for random histograms, the tree's output equals a
	// sequential exclusive scan.
	f := func(seed uint32) bool {
		const procs, buckets = 8, 16
		hists := make([][]int32, procs)
		s := seed
		for i := range hists {
			hists[i] = make([]int32, buckets)
			for b := range hists[i] {
				s = s*1664525 + 1013904223
				hists[i][b] = int32(s % 1000)
			}
		}
		ranks, totals := reduceAll(t, procs, buckets, func(id int) []int32 { return hists[id] })
		for b := 0; b < buckets; b++ {
			var run int32
			for i := 0; i < procs; i++ {
				if ranks[i][b] != run {
					return false
				}
				run += hists[i][b]
			}
			for i := 0; i < procs; i++ {
				if totals[i][b] != run {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPrefixTreeReusableAcrossEpisodes(t *testing.T) {
	// Radix sort reuses the tree once per pass; values from pass k must
	// not leak into pass k+1.
	w := world(t, 4)
	tree := NewPrefixTree(w, 4)
	mustRun(t, w.M, func(p *machine.Proc) {
		for pass := 1; pass <= 3; pass++ {
			h := []int32{int32(pass), 0, int32(p.ID), 1}
			rank, total := tree.Reduce(p, h)
			if total[0] != int32(4*pass) {
				t.Errorf("pass %d proc %d total[0] = %d, want %d", pass, p.ID, total[0], 4*pass)
			}
			if total[2] != 0+1+2+3 {
				t.Errorf("pass %d total[2] = %d, want 6", pass, total[2])
			}
			if rank[3] != int32(p.ID) {
				t.Errorf("pass %d proc %d rank[3] = %d, want %d", pass, p.ID, rank[3], p.ID)
			}
		}
	})
}

func TestPrefixTreeChargesCommunication(t *testing.T) {
	w := world(t, 8)
	tree := NewPrefixTree(w, 64)
	res := mustRun(t, w.M, func(p *machine.Proc) {
		h := make([]int32, 64)
		h[p.ID] = 1
		tree.Reduce(p, h)
	})
	// Proc 0 combines at every level: it must have remote memory time.
	if res.PerProc[0].Breakdown.RMem == 0 {
		t.Error("combining processor has no RMem time")
	}
	// Everyone synchronized at least at the final barrier.
	for i, ps := range res.PerProc {
		if ps.Breakdown.Sync == 0 {
			t.Errorf("proc %d has no sync time", i)
		}
	}
}

func TestPrefixTreeDeterministic(t *testing.T) {
	run := func() float64 {
		w := world(t, 8)
		tree := NewPrefixTree(w, 32)
		res := mustRun(t, w.M, func(p *machine.Proc) {
			h := make([]int32, 32)
			for b := range h {
				h[b] = int32(p.ID*31 + b)
			}
			tree.Reduce(p, h)
		})
		return res.TimeNs
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic reduce: %v vs %v", a, b)
	}
}

// TestPrefixTreeAnyProcs: the tree spans every processor count from 1
// to 70, powers of two or not. Over three episodes each processor's rank
// is the sequential exclusive scan and every total the full sum, and
// every flag is set exactly as often as it is taken: after the episodes
// each one is empty, so processor 0 can set and take it once more
// without parking (a surplus set would park it at "flag (full)", a
// missing one would have stranded its waiter).
func TestPrefixTreeAnyProcs(t *testing.T) {
	const buckets, episodes = 3, 3
	for procs := 1; procs <= 70; procs++ {
		cfg := machine.Origin2000Scaled(procs)
		cfg.Topology.Kind = topology.KindFatTree
		cfg.Topology.ProcsPerNode = 1
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("machine.New(%d): %v", procs, err)
		}
		w := NewWorld(m)
		tree := NewPrefixTree(w, buckets)
		hist := func(e, i, b int) int32 { return int32((i*7+b*3+e)%5 + i%3) }
		mustRun(t, w.M, func(p *machine.Proc) {
			for e := 0; e < episodes; e++ {
				local := make([]int32, buckets)
				for b := range local {
					local[b] = hist(e, p.ID, b)
				}
				rank, total := tree.Reduce(p, local)
				for b := 0; b < buckets; b++ {
					var before, all int32
					for i := 0; i < procs; i++ {
						if i < p.ID {
							before += hist(e, i, b)
						}
						all += hist(e, i, b)
					}
					if rank[b] != before || total[b] != all {
						t.Errorf("P=%d episode %d proc %d bucket %d: rank %d total %d, want %d and %d",
							procs, e, p.ID, b, rank[b], total[b], before, all)
					}
				}
			}
			if p.ID == 0 {
				for _, level := range append(tree.upReady, tree.downReady...) {
					for _, f := range level {
						f.Set(p)
						f.Wait(p)
					}
				}
			}
		})
	}
}

func TestReduceValidatesLength(t *testing.T) {
	w := world(t, 2)
	tree := NewPrefixTree(w, 8)
	if _, err := w.M.Run(func(p *machine.Proc) { tree.Reduce(p, make([]int32, 4)) }); err == nil {
		t.Error("Reduce accepted wrong-length histogram")
	}
}

// TestPanicBeforeFlagSet: a processor that panics before setting a flag
// another one waits on aborts the run like a panic before a barrier
// does — the waiter unwinds and Run reports the failed processor. A
// waiter whose peer returned without setting its flag, or that waits in
// a cycle of flags, fails the run with a *machine.StrandedError instead
// of parking forever; a setter that returns right after setting never
// does.
func TestPanicBeforeFlagSet(t *testing.T) {
	const buckets = 16
	lost := &machine.ProcPanic{Proc: 1, Value: "processor 1 lost its keys"}
	for _, tc := range []struct {
		name  string
		procs int
		runs  int
		body  func(w *World) func(p *machine.Proc)
		// want is what Run returns: a *machine.ProcPanic, a
		// *machine.StrandedError, or nil.
		want error
	}{
		// The radix sort's histogram step: count locally, then Reduce.
		// Processor 1 dies while counting; processor 0 waits on its leaf
		// flag, 2 and 3 further up the tree and at the barrier.
		{"reduce", 4, 1, func(w *World) func(p *machine.Proc) {
			tree := NewPrefixTree(w, buckets)
			return func(p *machine.Proc) {
				local := make([]int32, buckets)
				for k := 0; k < 64; k++ {
					if p.ID == 1 && k == 32 {
						panic("processor 1 lost its keys")
					}
					local[(k*7+p.ID)%buckets]++
				}
				p.Compute(64)
				tree.Reduce(p, local)
			}
		}, lost},
		// The bare pair, both directions: 0 waits on a flag nobody sets,
		// 2 is blocked setting one that is still full.
		{"flags", 4, 1, func(w *World) func(p *machine.Proc) {
			never, full := NewFlag(w), NewFlag(w)
			return func(p *machine.Proc) {
				switch p.ID {
				case 0:
					never.Wait(p)
				case 1:
					panic("processor 1 lost its keys")
				case 2:
					full.Set(p)
					full.Set(p)
				}
			}
		}, lost},
		// Processor 0 waits on a flag; processor 1 dies, and processor 2,
		// still running, sets the flag after the abort unwound 0. The set
		// must unwind 2 instead of releasing 0 a second time.
		{"set after abort", 4, 3, func(w *World) func(p *machine.Proc) {
			late := NewFlag(w)
			return func(p *machine.Proc) {
				switch p.ID {
				case 0:
					late.Wait(p)
				case 1:
					time.Sleep(5 * time.Millisecond)
					panic("processor 1 lost its keys")
				case 2:
					time.Sleep(50 * time.Millisecond)
					late.Set(p)
					t.Error("processor 2 went on past a Set in an aborted run")
				}
			}
		}, lost},
		// Processor 1 returns without setting the flag 0 waits on.
		{"returned", 4, 1, func(w *World) func(p *machine.Proc) {
			never := NewFlag(w)
			return func(p *machine.Proc) {
				p.SetPhase("histogram")
				if p.ID == 0 {
					never.Wait(p)
				}
			}
		}, &machine.StrandedError{Parked: []machine.Parked{{Proc: 0, At: "flag", Phase: "histogram"}}, Returned: []int{1, 2, 3}}},
		// Each waits for the flag the other sets after its own wait.
		{"cycle", 2, 1, func(w *World) func(p *machine.Proc) {
			flags := [2]*Flag{NewFlag(w), NewFlag(w)}
			return func(p *machine.Proc) {
				flags[p.ID].Wait(p)
				flags[1-p.ID].Set(p)
			}
		}, &machine.StrandedError{Parked: []machine.Parked{{Proc: 0, At: "flag"}, {Proc: 1, At: "flag"}}}},
		// Setters return right after Set while their waiters may still be
		// parked: the release must count before the return does.
		{"set then return", 4, 1000, func(w *World) func(p *machine.Proc) {
			flags := [2]*Flag{NewFlag(w), NewFlag(w)}
			return func(p *machine.Proc) {
				if p.ID%2 == 0 {
					flags[p.ID/2].Set(p)
				} else {
					flags[p.ID/2].Wait(p)
				}
			}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := world(t, tc.procs)
			body := tc.body(w)
			for run := 0; run < tc.runs; run++ {
				if _, err := w.M.Run(body); !reflect.DeepEqual(err, tc.want) {
					t.Fatalf("run %d: Run returned %#v, want %#v", run, err, tc.want)
				}
			}
			// Nothing of the failed runs reaches the machine's next one,
			// even for processor 0 parking first.
			cfg := w.M.Config()
			release := float64(tc.procs-1) + cfg.BarrierCost(tc.procs)
			w.M.SetArrivalOrderForTest(func(proc, arrived int) bool { return proc == arrived })
			defer w.M.SetArrivalOrderForTest(nil)
			mustRun(t, w.M, func(p *machine.Proc) {
				p.ComputeNs(float64(p.ID))
				w.Barrier(p)
				if p.Now() != release {
					t.Errorf("processor %d left the next run's barrier at %v, want %v", p.ID, p.Now(), release)
				}
			})
		})
	}
}
