package machine

import "testing"

func TestProcAccessorsAndCharges(t *testing.T) {
	m := testMachine(t, 4)
	mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		if p.Machine() != m {
			t.Error("Machine accessor wrong")
		}
		p.SetPhase("x")
		if p.Phase() != "x" {
			t.Error("Phase accessor wrong")
		}
		p.WaitUntil(p.Now() + 100)
		p.LocalMemNs(50)
		p.RemoteMemNs(25)
		p.AddMessageTraffic(1024, 2)
		st := p.Stats()
		if st.Breakdown.Sync < 100 || st.Breakdown.LMem < 50 || st.Breakdown.RMem < 25 {
			t.Errorf("charges not recorded: %+v", st.Breakdown)
		}
		if st.Traffic.RemoteBytes != 1024 || st.Traffic.Messages != 2 {
			t.Errorf("traffic: %+v", st.Traffic)
		}
		ph := st.Phases["x"]
		if ph.Sync < 100 || ph.LMem < 50 || ph.RMem < 25 {
			t.Errorf("phase charges not recorded: %+v", ph)
		}
		// SetContention floors at 1.
		p.SetContention(0.5)
		if p.contention != 1 {
			t.Errorf("contention floored to %v", p.contention)
		}
		if p.ContentionFactor(4) <= 1 {
			t.Error("ContentionFactor for 4 procs should exceed 1")
		}
		if p.ScatteredContentionFactor(4, 1<<20) <= 1 {
			t.Error("ScatteredContentionFactor at heavy load should exceed 1")
		}
		p.SetPhase("")
	})
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestMustNewOK(t *testing.T) {
	m := MustNew(Origin2000Scaled(2))
	if m.Procs() != 2 {
		t.Errorf("procs = %d", m.Procs())
	}
}

func TestArrayRoundRobinAndRegion(t *testing.T) {
	m := testMachine(t, 4)
	a := NewArrayRoundRobin[int64](m, "rr", 4096)
	if a.Region() == nil || a.Region().Name() != "rr" {
		t.Error("region accessor wrong")
	}
	// Round-robin pages land on different nodes.
	page := m.Config().TLB.PageSize
	h0 := m.AddressSpace().HomeOf(a.Addr(0))
	h1 := m.AddressSpace().HomeOf(a.Addr(page / 8))
	if h0 == h1 {
		t.Errorf("consecutive pages homed together: %d, %d", h0, h1)
	}
	mustRun(t, m, func(p *Proc) {
		if p.ID == 0 {
			a.StoreRange(p, 0, 100, Private)
			a.LoadRange(p, 0, 100, Private)
			a.StoreRange(p, 5, 5, Private) // empty range: no-op
		}
	})
}

func TestConfigValidateRejectsBadSubconfigs(t *testing.T) {
	cfg := Origin2000(64)
	cfg.Cache.LineSize = 100 // not a power of two
	if err := cfg.Validate(); err == nil {
		t.Error("accepted bad cache")
	}
	cfg = Origin2000(64)
	cfg.TLB.Entries = 0
	if err := cfg.Validate(); err == nil {
		t.Error("accepted bad TLB")
	}
	cfg = Origin2000(63) // invalid topology (router count)
	if err := cfg.Validate(); err == nil {
		t.Error("accepted bad topology")
	}
	cfg = Origin2000(64)
	cfg.Scale = 0
	if err := cfg.Validate(); err == nil || err.Error() != "machine: Scale must be at least 1, got 0" {
		t.Errorf("Scale 0: Validate = %v", err)
	}
}

func TestSharedReadAndWriteClasses(t *testing.T) {
	m := testMachine(t, 8)
	arr := NewArrayBlocked[uint32](m, "sr", 1<<13)
	perProc := arr.Len() / 8
	res := mustRun(t, m, func(p *Proc) {
		switch p.ID {
		case 1:
			// Read-shared misses on a remote partition.
			arr.LoadRange(p, 7*perProc, 8*perProc, SharedRead)
		case 2:
			// Writes requiring invalidation of a sharer.
			for i := 0; i < 24; i++ {
				store(p, arr, 7*perProc+i*32, 1, SharedRead)
			}
		case 3:
			// DirtyElsewhere reads of a remote region.
			arr.LoadRange(p, 6*perProc, 7*perProc, DirtyElsewhere)
		}
	})
	for _, id := range []int{1, 2, 3} {
		if res.PerProc[id].Breakdown.RMem == 0 {
			t.Errorf("proc %d charged no remote time", id)
		}
	}
}

func TestWritebackChargesRemoteHome(t *testing.T) {
	// Fill proc 0's cache with dirty lines of a REMOTE region, then force
	// evictions: writebacks must charge remote time.
	m := testMachine(t, 8)
	remote := NewArrayOnProc[uint32](m, "rwb", 1<<17, 7) // homed on node 3
	local := NewArrayOnProc[uint32](m, "lwb", 1<<17, 0)
	res := mustRun(t, m, func(p *Proc) {
		if p.ID != 0 {
			return
		}
		remote.StoreRange(p, 0, remote.Len(), Private) // dirty remote lines
		local.LoadRange(p, 0, local.Len(), Private)    // evict them
	})
	if res.PerProc[0].Writebacks == 0 {
		t.Fatal("no writebacks occurred")
	}
}
