package machine

import (
	"testing"
	"testing/quick"
)

func TestArrayReserveGrow(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 1000, 0)
	if a.Len() != 0 {
		t.Fatalf("fresh reserve has len %d", a.Len())
	}
	base := a.Addr(0)
	a.Grow(10)
	if a.Len() != 10 {
		t.Errorf("after Grow(10): len %d", a.Len())
	}
	a.Data[9] = 42
	a.Grow(500)
	if a.Len() != 500 {
		t.Errorf("after Grow(500): len %d", a.Len())
	}
	if a.Data[9] != 42 {
		t.Error("Grow lost data")
	}
	if a.Addr(0) != base {
		t.Error("Grow moved the simulated base address")
	}
	// Shrinking requests are no-ops.
	a.Grow(5)
	if a.Len() != 500 {
		t.Errorf("Grow(5) shrank to %d", a.Len())
	}
}

func TestArrayGrowBeyondCapacityPanics(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 100, 0)
	defer func() {
		if recover() == nil {
			t.Error("Grow past capacity did not panic")
		}
	}()
	a.Grow(101)
}

// store writes element i of a and charges it as a scattered store:
// posted through the write buffer, so a miss overlaps like a stream's.
func store[T any](p *Proc, a *Array[T], i int, v T, sh Sharing) {
	p.access(a.Addr(i), true, sh, streamed)
	a.Data[i] = v
}

func TestArrayLoadStoreRoundTrip(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "x", 128, 0)
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		store(p, a, 7, 99, Private)
		if got := a.Load(p, 7, Private); got != 99 {
			t.Errorf("Load = %d", got)
		}
	})
}

func TestSeqAccessCheaperThanScattered(t *testing.T) {
	// The same miss pattern costs less as a sequential access (MSHR
	// overlap) than via Load (dependent access).
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "seq", 1<<16, 0)
	b := NewArrayOnProc[uint32](m, "scat", 1<<16, 0)
	var seqCost, scatCost float64
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		before := p.Stats().Breakdown.LMem
		for i := 0; i < a.Len(); i += 32 {
			p.access(a.Addr(i), false, Private, streamed)
		}
		seqCost = p.Stats().Breakdown.LMem - before
		before = p.Stats().Breakdown.LMem
		for i := 0; i < b.Len(); i += 32 {
			b.Load(p, i, Private)
		}
		scatCost = p.Stats().Breakdown.LMem - before
	})
	if seqCost >= scatCost {
		t.Errorf("stream cost (%v) should be below scattered cost (%v)", seqCost, scatCost)
	}
}

func TestInvalidateRange(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "x", 1024, 0)
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		a.LoadRange(p, 0, 1024, Private)
		if !p.CacheContains(a.Addr(0)) || !p.CacheContains(a.Addr(1000)) {
			t.Fatal("warmup failed")
		}
		p.InvalidateRange(a.Addr(0), a.Bytes(512))
		if p.CacheContains(a.Addr(0)) {
			t.Error("invalidated line still present")
		}
		if !p.CacheContains(a.Addr(1000)) {
			t.Error("line outside the range was dropped")
		}
		p.InvalidateRange(a.Addr(0), 0) // no-op
	})
}

func TestBarrierPropertyClocksEqualAfterwards(t *testing.T) {
	// Property: whatever work precedes a barrier, all clocks agree right
	// after it.
	f := func(work [4]uint16) bool {
		m := testMachine(t, 4)
		clocks := make([]float64, 4)
		mustRun(t, m, func(p *Proc) {
			p.Compute(int(work[p.ID]))
			m.Barrier(p)
			clocks[p.ID] = p.Now()
		})
		for i := 1; i < 4; i++ {
			if clocks[i] != clocks[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScatteredContentionLoadDependence(t *testing.T) {
	cfg := Origin2000Scaled(64)
	light := cfg.ScatteredContention(64, 1024)           // tiny burst
	heavy := cfg.ScatteredContention(64, cfg.Cache.Size) // cache-scale scatter
	if light >= heavy {
		t.Errorf("light-load factor (%v) should be below heavy-load (%v)", light, heavy)
	}
	if light <= 1 {
		t.Errorf("floored light-load factor should still exceed 1, got %v", light)
	}
	over := cfg.ScatteredContention(64, 100*cfg.Cache.Size)
	if over != heavy {
		t.Errorf("load should saturate at 1: %v vs %v", over, heavy)
	}
}

func TestBulkTransferZeroBytes(t *testing.T) {
	m := testMachine(t, 2)
	res := mustRun(t, m, func(p *Proc) {
		if p.ID == 0 {
			p.BulkTransfer(0, 0, 0, false)
		}
	})
	if res.PerProc[0].Breakdown.Total() != 0 {
		t.Error("zero-byte transfer charged time")
	}
}

func TestResultAggregates(t *testing.T) {
	m := testMachine(t, 4)
	res := mustRun(t, m, func(p *Proc) {
		p.Compute(100 * (p.ID + 1))
	})
	if !closeTo(res.TimeNs, 400*OpNs) {
		t.Errorf("TimeNs = %v", res.TimeNs)
	}
	tot := res.TotalBreakdown()
	if !closeTo(tot.Busy, (100+200+300+400)*OpNs) {
		t.Errorf("TotalBreakdown busy = %v", tot.Busy)
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{Busy: 1, LMem: 2, RMem: 3, Sync: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Mem() != 5 {
		t.Errorf("Mem = %v", b.Mem())
	}
	var sum Breakdown
	sum.Add(b)
	sum.Add(b)
	if sum.Total() != 20 {
		t.Errorf("Add total = %v", sum.Total())
	}
}
