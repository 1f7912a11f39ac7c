package machine

import (
	"testing"
)

func testMachine(t *testing.T, procs int) *Machine {
	t.Helper()
	m, err := New(Origin2000Scaled(procs))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// mustRun runs body on m and fails the test if the run failed.
func mustRun(tb testing.TB, m *Machine, body func(p *Proc)) *Result {
	tb.Helper()
	res, err := m.Run(body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestConfigValidateDefaults(t *testing.T) {
	cfg := Origin2000(64)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Origin2000(64) invalid: %v", err)
	}
	if cfg != Origin2000(64) {
		t.Errorf("Validate changed the config: %+v", cfg)
	}
}

func TestOriginConfigsDiffer(t *testing.T) {
	full := Origin2000(64)
	scaled := Origin2000Scaled(64)
	if full.Cache.Size != 4<<20 {
		t.Errorf("full cache size: %d", full.Cache.Size)
	}
	if full.Cache.Size/scaled.Cache.Size != ScaleFactor {
		t.Errorf("scaled cache should be %dx smaller, ratio %d",
			ScaleFactor, full.Cache.Size/scaled.Cache.Size)
	}
	if full.TLB.PageSize/scaled.TLB.PageSize != ScaleFactor {
		t.Errorf("page scale = %d, want %d", full.TLB.PageSize/scaled.TLB.PageSize, ScaleFactor)
	}
	if full.Scale != 1 || scaled.Scale != ScaleFactor {
		t.Errorf("scales = %d, %d, want 1, %d", full.Scale, scaled.Scale, ScaleFactor)
	}
	if full.BarrierCost(64)/scaled.BarrierCost(64) != ScaleFactor {
		t.Errorf("barrier cost should scale by %d", ScaleFactor)
	}
}

func TestRunCollectsPerProcStats(t *testing.T) {
	m := testMachine(t, 4)
	res := mustRun(t, m, func(p *Proc) {
		p.Compute(100 * (p.ID + 1))
	})
	if len(res.PerProc) != 4 {
		t.Fatalf("got %d proc stats", len(res.PerProc))
	}
	for i, ps := range res.PerProc {
		want := float64(100*(i+1)) * OpNs
		if !closeTo(ps.Breakdown.Busy, want) {
			t.Errorf("proc %d busy = %v, want %v", i, ps.Breakdown.Busy, want)
		}
	}
	if !closeTo(res.TimeNs, 400*OpNs) {
		t.Errorf("TimeNs = %v, want slowest proc's 400 ops", res.TimeNs)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() float64 {
		m := testMachine(t, 8)
		// Permute src into a separate dst, as the real sorting programs
		// do: i -> (i+7919) mod n is a bijection, so every host-slice
		// element is written by exactly one processor and the body is
		// race-free (an earlier version scattered into src itself, which
		// raced each proc's reads against others' writes under -race).
		src := NewArrayBlocked[uint32](m, "keys", 1<<14)
		dst := NewArrayBlocked[uint32](m, "out", 1<<14)
		res := mustRun(t, m, func(p *Proc) {
			n := src.Len() / m.Procs()
			lo := p.ID * n
			for i := lo; i < lo+n; i++ {
				v := src.Load(p, i, Private)
				store(p, dst, (i+7919)%dst.Len(), v+uint32(i), RemoteProduced)
			}
			m.Barrier(p)
			p.Compute(10)
		})
		return res.TimeNs
	}
	t1, t2, t3 := run(), run(), run()
	if t1 != t2 || t2 != t3 {
		t.Errorf("non-deterministic times: %v, %v, %v", t1, t2, t3)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	m := testMachine(t, 4)
	cost := m.cfg.BarrierCost(m.Procs())
	if want := m.cfg.SoftwareNs(barrierBaseNs) + 2*m.cfg.SoftwareNs(barrierPerLogNs); cost != want {
		t.Fatalf("BarrierCost(4) = %v, want base + 2·perLog = %v", cost, want)
	}
	res := mustRun(t, m, func(p *Proc) {
		p.Compute(1000 * (p.ID + 1)) // proc 3 arrives last
		m.Barrier(p)
		if want := 4000*OpNs + cost; !closeTo(p.Now(), want) {
			t.Errorf("proc %d released at %v, want %v", p.ID, p.Now(), want)
		}
	})
	// Proc 0 waited longest: sync = 3000 ops + cost.
	wantSync := 3000*OpNs + cost
	if !closeTo(res.PerProc[0].Breakdown.Sync, wantSync) {
		t.Errorf("proc 0 sync = %v, want %v", res.PerProc[0].Breakdown.Sync, wantSync)
	}
	// Proc 3 only paid the barrier cost.
	if !closeTo(res.PerProc[3].Breakdown.Sync, cost) {
		t.Errorf("proc 3 sync = %v, want %v", res.PerProc[3].Breakdown.Sync, cost)
	}
}

func TestBarrierReusableAcrossEpisodes(t *testing.T) {
	m := testMachine(t, 4)
	mustRun(t, m, func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Compute((p.ID + 1) * 10)
			m.Barrier(p)
		}
	})
	// Determinism across episodes is validated by all procs ending at the
	// same virtual time.
	res := mustRun(t, m, func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Compute((p.ID + 1) * 10)
			m.Barrier(p)
		}
	})
	t0 := res.PerProc[0].Breakdown.Total()
	for i, ps := range res.PerProc {
		if !closeTo(ps.Breakdown.Total(), t0) {
			t.Errorf("proc %d total %v != proc 0 total %v", i, ps.Breakdown.Total(), t0)
		}
	}
}

func TestLocalVsRemoteCharging(t *testing.T) {
	m := testMachine(t, 8)
	arr := NewArrayBlocked[uint32](m, "keys", 1<<14) // 64 KB: 8 KB per proc partition
	perProc := arr.Len() / 8
	res := mustRun(t, m, func(p *Proc) {
		if p.ID == 0 {
			// Proc 0 reads its own partition: local misses only.
			arr.LoadRange(p, 0, perProc, Private)
		}
		if p.ID == 7 {
			// Proc 7 reads proc 0's partition: remote misses.
			arr.LoadRange(p, 0, perProc, Private)
		}
	})
	p0, p7 := res.PerProc[0].Breakdown, res.PerProc[7].Breakdown
	if p0.LMem == 0 || p0.RMem != 0 {
		t.Errorf("proc 0 (local reader): lmem=%v rmem=%v, want lmem>0 rmem=0", p0.LMem, p0.RMem)
	}
	if p7.RMem == 0 {
		t.Errorf("proc 7 (remote reader): rmem=%v, want > 0", p7.RMem)
	}
	if p7.RMem <= p0.LMem {
		t.Errorf("remote reading (%v) should cost more than local (%v)", p7.RMem, p0.LMem)
	}
	if res.PerProc[7].Traffic.RemoteBytes == 0 {
		t.Error("remote reader generated no traffic")
	}
}

func TestSharingClassCosts(t *testing.T) {
	// RemoteProduced (3-hop) must cost more than Private (2-hop) for the
	// same remote addresses.
	m := testMachine(t, 8)
	arr := NewArrayBlocked[uint32](m, "keys", 1<<14)
	perProc := arr.Len() / 8
	res := mustRun(t, m, func(p *Proc) {
		switch p.ID {
		case 1:
			arr.LoadRange(p, 7*perProc, 8*perProc, Private)
		case 2:
			arr.LoadRange(p, 7*perProc, 8*perProc, RemoteProduced)
		}
	})
	if res.PerProc[2].Breakdown.RMem <= res.PerProc[1].Breakdown.RMem {
		t.Errorf("RemoteProduced (%v) should cost more than Private (%v)",
			res.PerProc[2].Breakdown.RMem, res.PerProc[1].Breakdown.RMem)
	}
}

func TestCacheCapacityEffect(t *testing.T) {
	// Reading a working set that fits in cache twice should be much
	// cheaper the second time; one that exceeds cache should not.
	m := testMachine(t, 2)
	cacheBytes := m.Config().Cache.Size
	// small fits both the cache and the TLB reach (64 pages).
	small := NewArrayOnProc[uint32](m, "small", cacheBytes/16, 0)
	big := NewArrayOnProc[uint32](m, "big", cacheBytes, 0) // 4x cache

	var smallSecond, bigSecond float64
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		small.LoadRange(p, 0, small.Len(), Private)
		before := p.Stats().Breakdown.LMem
		small.LoadRange(p, 0, small.Len(), Private)
		smallSecond = p.Stats().Breakdown.LMem - before

		big.LoadRange(p, 0, big.Len(), Private)
		before = p.Stats().Breakdown.LMem
		big.LoadRange(p, 0, big.Len(), Private)
		bigSecond = p.Stats().Breakdown.LMem - before
	})
	if smallSecond != 0 {
		t.Errorf("second walk of cache-resident set cost %v, want 0", smallSecond)
	}
	if bigSecond == 0 {
		t.Error("second walk of over-capacity set cost 0, want misses")
	}
}

func TestContentionFactor(t *testing.T) {
	cfg := Origin2000Scaled(64)
	if f := cfg.contentionFactor(1); f != 1 {
		t.Errorf("single proc factor = %v, want 1", f)
	}
	bulk := cfg.contentionFactor(64)
	scattered := cfg.ScatteredContention(64, cfg.Cache.Size)
	if bulk <= 1 || scattered <= bulk {
		t.Errorf("want 1 < bulk (%v) < saturated scattered (%v)", bulk, scattered)
	}
	// The no-contention ablation: every factor is exactly 1.
	cfg.NoContention = true
	if f, g := cfg.contentionFactor(64), cfg.ScatteredContention(64, cfg.Cache.Size); f != 1 || g != 1 {
		t.Errorf("no-contention factors = %v, %v, want 1", f, g)
	}
}

func TestFlatMemoryAblation(t *testing.T) {
	cfg := Origin2000Scaled(8)
	cfg.FlatMemory = true
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	arr := NewArrayBlocked[uint32](m, "keys", 1<<14)
	perProc := arr.Len() / 8
	res := mustRun(t, m, func(p *Proc) {
		if p.ID == 7 {
			arr.LoadRange(p, 0, perProc, RemoteProduced)
		}
	})
	if res.PerProc[7].Breakdown.RMem != 0 {
		t.Errorf("flat memory should charge everything locally, rmem = %v",
			res.PerProc[7].Breakdown.RMem)
	}
}

func TestBulkTransfer(t *testing.T) {
	m := testMachine(t, 4)
	dst := NewArrayOnProc[uint32](m, "buf", 1024, 0)
	res := mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		p.BulkTransfer(1, 4096, dst.Addr(0), true)
	})
	ps := res.PerProc[0]
	if ps.Breakdown.RMem == 0 {
		t.Error("bulk transfer from remote node charged nothing")
	}
	if ps.Traffic.Messages != 1 || ps.Traffic.RemoteBytes != 4096 {
		t.Errorf("traffic = %+v, want 1 message, 4096 bytes", ps.Traffic)
	}
	// intoCache: destination lines now resident.
	if !m.Proc(0).CacheContains(dst.Addr(0)) {
		t.Error("intoCache transfer did not install lines")
	}
}

func TestBulkTransferLocal(t *testing.T) {
	m := testMachine(t, 4)
	dst := NewArrayOnProc[uint32](m, "buf", 1024, 0)
	res := mustRun(t, m, func(p *Proc) {
		if p.ID == 0 {
			p.BulkTransfer(0, 4096, dst.Addr(0), false)
		}
	})
	ps := res.PerProc[0]
	if ps.Breakdown.LMem == 0 || ps.Breakdown.RMem != 0 {
		t.Errorf("local bulk transfer: lmem=%v rmem=%v", ps.Breakdown.LMem, ps.Breakdown.RMem)
	}
}

func TestWaitUntilChargesSync(t *testing.T) {
	m := testMachine(t, 2)
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		p.Compute(10)
		was := p.Now()
		p.WaitUntil(was + 500)
		if !closeTo(p.Stats().Breakdown.Sync, 500) {
			t.Errorf("sync = %v, want 500", p.Stats().Breakdown.Sync)
		}
		after := p.Stats().Breakdown.Sync
		p.WaitUntil(was) // past: no-op
		if p.Stats().Breakdown.Sync != after {
			t.Error("WaitUntil(past) changed sync")
		}
	})
}

func TestTLBMissesCharged(t *testing.T) {
	m := testMachine(t, 2)
	// Touch one word per page across many pages: every access TLB-misses.
	arr := NewArrayOnProc[uint32](m, "pages", 1<<16, 0)
	pageWords := m.Config().TLB.PageSize / 4
	res := mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		for i := 0; i < arr.Len(); i += pageWords {
			arr.Load(p, i, Private)
		}
	})
	ps := res.PerProc[0]
	wantPages := uint64(arr.Len() / pageWords)
	if ps.TLBMisses != wantPages {
		t.Errorf("TLB misses = %d, want %d", ps.TLBMisses, wantPages)
	}
}

func TestRunReturnsProcPanic(t *testing.T) {
	m := testMachine(t, 2)
	res, err := m.Run(func(p *Proc) {
		if p.ID == 1 {
			panic("boom")
		}
	})
	if pp, ok := err.(*ProcPanic); res != nil || !ok || pp.Proc != 1 {
		t.Errorf("Run = %v, %v; want no result and processor 1's panic", res, err)
	}
}

func TestArrayAddressing(t *testing.T) {
	m := testMachine(t, 4)
	a32 := NewArrayBlocked[uint32](m, "a32", 100)
	a64 := NewArrayBlocked[uint64](m, "a64", 100)
	if a32.Addr(10)-a32.Addr(0) != 40 {
		t.Error("uint32 stride wrong")
	}
	if a64.Addr(10)-a64.Addr(0) != 80 {
		t.Error("uint64 stride wrong")
	}
	if a32.Bytes(10) != 40 {
		t.Error("Bytes wrong")
	}
}

func TestArrayBlockedHomes(t *testing.T) {
	m := testMachine(t, 8)
	// One page per processor partition.
	page := m.Config().TLB.PageSize
	arr := NewArrayBlocked[uint32](m, "k", 8*page/4)
	as := m.AddressSpace()
	for proc := 0; proc < 8; proc++ {
		addr := arr.Addr(proc * page / 4)
		if got, want := as.HomeOf(addr), m.Topology().NodeOf(proc); got != want {
			t.Errorf("partition %d homed on %d, want %d", proc, got, want)
		}
	}
}

func TestResetMemory(t *testing.T) {
	m := testMachine(t, 2)
	arr := NewArrayOnProc[uint32](m, "x", 64, 0)
	mustRun(t, m, func(p *Proc) {
		if p.ID == 0 {
			arr.Load(p, 0, Private)
		}
	})
	if !m.Proc(0).CacheContains(arr.Addr(0)) {
		t.Fatal("line not cached after load")
	}
	m.ResetMemory()
	if m.Proc(0).CacheContains(arr.Addr(0)) {
		t.Error("line survived ResetMemory")
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6*(1+b)
}
