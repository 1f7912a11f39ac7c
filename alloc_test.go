package repro

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestSmallCellAllocBudget bounds what one small-n / large-P cell may
// allocate on the host. These cells are where replicated work hurts: a
// full exchange plan is P×B words, so building one per processor per
// pass (as every processor of the simulated program does) costs the
// host P² × B words a pass — 1 122 MB for the first cell below. The
// sorting programs build each plan once per run and share it
// (internal/sorts/shared.go); a per-processor build coming back fails
// here by an order of magnitude, not by a slow job. The two message-
// passing budgets are what the cells allocate plus a quarter — 6.9 and
// 25.8 MB, against 20.8 and 72.0 MB when every message was a heap
// object, a channel and a copied payload — so a per-message allocation
// coming back fails here too. The second Run of each cell is measured,
// so the slab arena and lazily built tables are warm — and must map no
// slab: off-heap slabs never reach TotalAlloc, so an arena miss would
// not show in the budget.
func TestSmallCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	for _, tc := range []struct {
		e        Experiment
		budgetMB float64
	}{
		{Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 16, Procs: 256, Radix: 8, Topo: "fattree"}, 64},
		{Experiment{Algorithm: Radix, Model: MPI, N: 1 << 16, Procs: 64, Radix: 8}, 8.7},
		{Experiment{Algorithm: Radix, Model: MPI, N: 1 << 20, Procs: 128, Radix: 8, Topo: "numa2"}, 32.5},
	} {
		if _, err := Run(tc.e); err != nil {
			t.Fatalf("%s: %v", tc.e.Label(), err)
		}
		var before, after runtime.MemStats
		maps := machine.ArenaStats().Maps
		runtime.ReadMemStats(&before)
		if _, err := Run(tc.e); err != nil {
			t.Fatalf("%s: %v", tc.e.Label(), err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: %.1f MB allocated", tc.e.Label(), mb)
		if mb > tc.budgetMB {
			t.Errorf("%s allocated %.1f MB, budget %.1f MB", tc.e.Label(), mb, tc.budgetMB)
		}
		if n := machine.ArenaStats().Maps - maps; n != 0 {
			t.Errorf("%s mapped %d slabs on its second run, want 0", tc.e.Label(), n)
		}
	}
}

// TestStreamMixSecondPassMapsNothing runs cmd/bench's stream-big cells
// — the same algorithm/model/processor mix in the same order, at a
// sixty-fourth of the keys — twice. Consecutive cells borrow different
// mixes of slab classes; the pool splits and merges its slabs to serve
// them, so once one pass has run, the next maps no slab.
func TestStreamMixSecondPassMapsNothing(t *testing.T) {
	cells := []Experiment{
		{Algorithm: Radix, Model: CCSASNew, N: 1 << 16, Procs: 64},
		{Algorithm: Sample, Model: CCSAS, N: 1 << 16, Procs: 64},
		{Algorithm: Radix, Model: SHMEM, N: 1 << 16, Procs: 64},
		{Algorithm: Psrs, Model: MPI, N: 1 << 16, Procs: 64},
		{Algorithm: Radix, Model: CCSAS, N: 1 << 14, Procs: 8},
		{Algorithm: Sample, Model: CCSAS, N: 1 << 14, Procs: 8},
		{Algorithm: Psrs, Model: MPI, N: 1 << 14, Procs: 8},
	}
	for pass := 1; pass <= 2; pass++ {
		maps := machine.ArenaStats().Maps
		for _, e := range cells {
			e.Seed = 1
			if _, err := Run(e); err != nil {
				t.Fatalf("%s: %v", e.Label(), err)
			}
		}
		n := machine.ArenaStats().Maps - maps
		t.Logf("pass %d mapped %d slabs: %+v", pass, n, machine.ArenaStats())
		if pass == 2 && n != 0 {
			t.Errorf("the second pass mapped %d slabs, want 0", n)
		}
	}
}
