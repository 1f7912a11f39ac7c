package machine

import (
	"strings"
	"testing"
)

// TestZeroChargePhasePruned is the regression test for the
// zero-accesses-phase edge: a phase label that is set but never charged
// (barrier-only phase resolving at zero cost, or a label immediately
// replaced) used to surface as an all-zero Breakdown in
// ProcStats.Phases, so the per-phase BUSY+LMEM+RMEM+SYNC identity held
// only vacuously and downstream consumers saw phantom phases. The
// snapshot now prunes zero-charge accumulators: every reported phase
// has a non-trivial breakdown.
func TestZeroChargePhasePruned(t *testing.T) {
	m := MustNew(Origin2000Scaled(2))
	arr := NewArrayBlocked[int64](m, "t", 4096)
	res := mustRun(t, m, func(p *Proc) {
		p.SetPhase("ghost") // set and immediately replaced: zero charges
		p.SetPhase("work")
		lo, hi := p.ID*2048, (p.ID+1)*2048
		for i := lo; i < hi; i++ {
			store(p, arr, i, int64(i), Private)
		}
		p.SetPhase("warm") // every access below hits the warm cache
		for i := lo; i < hi; i++ {
			arr.Load(p, i, Private)
		}
		p.SetPhase("")
	})
	for i, ps := range res.PerProc {
		if _, ok := ps.Phases["ghost"]; ok {
			t.Errorf("proc %d: zero-charge phase \"ghost\" reported", i)
		}
		if _, ok := ps.Phases["warm"]; ok {
			t.Errorf("proc %d: phase \"warm\" (all cache hits, zero charges) reported", i)
		}
		b, ok := ps.Phases["work"]
		if !ok {
			t.Fatalf("proc %d: charged phase \"work\" missing from %v", i, ps.Phases)
		}
		if b.Total() <= 0 {
			t.Errorf("proc %d: phase \"work\" has empty breakdown %+v", i, b)
		}
		for name, b := range ps.Phases {
			if b == (Breakdown{}) {
				t.Errorf("proc %d: phase %q reported an all-zero breakdown", i, name)
			}
			if got := b.Busy + b.LMem + b.RMem + b.Sync; got != b.Total() {
				t.Errorf("proc %d: phase %q identity broken: %v != %v", i, name, got, b.Total())
			}
		}
	}
}

// TestParanoidRunClean drives a paranoid machine through every hooked
// code path — scalar and block accesses across all sharing classes,
// barriers, phases, invalidations, bulk transfers, memory resets and
// repeated runs — and requires a clean checker.
func TestParanoidRunClean(t *testing.T) {
	cfg := Origin2000Scaled(4)
	cfg.ParanoidSampleEvery = 1
	m := MustNew(cfg)
	arr := NewArrayBlocked[int64](m, "t", 4*1024)
	body := func(p *Proc) {
		p.SetPhase("fill")
		lo, hi := p.ID*1024, (p.ID+1)*1024
		for i := lo; i < hi; i++ {
			store(p, arr, i, int64(i), Private)
		}
		m.Barrier(p)
		p.SetPhase("steal")
		peer := (p.ID + 1) % 4
		for i := peer * 1024; i < peer*1024+1024; i += 4 {
			arr.Load(p, i, RemoteProduced)
			arr.Load(p, i+1, SharedRead)
			store(p, arr, i+2, 0, ConflictWrite)
			arr.Load(p, i+3, DirtyElsewhere)
		}
		m.Barrier(p)
		p.SetPhase("block")
		arr.LoadRange(p, lo, lo+1024, SharedRead)
		p.InvalidateRange(arr.Addr(lo), arr.Bytes(64))
		p.BulkTransfer((p.Node+1)%m.Topology().Nodes(), 4096, arr.Addr(lo), true)
		p.SetPhase("")
	}
	for run := 0; run < 2; run++ {
		mustRun(t, m, body)
		if err := m.Checker().Err(); err != nil {
			t.Fatalf("run %d: paranoid violations on a correct machine: %v", run, err)
		}
	}
	m.ResetMemory() // exercises the flush oracle
	mustRun(t, m, body)
	if err := m.Checker().Err(); err != nil {
		t.Fatalf("post-reset run: paranoid violations: %v", err)
	}
}

// TestParanoidCatchesClockRegression rewinds a processor's virtual
// clock mid-run and asserts the monotonicity invariant reports it with
// the proc and phase named.
func TestParanoidCatchesClockRegression(t *testing.T) {
	cfg := Origin2000Scaled(1)
	cfg.ParanoidSampleEvery = 1
	m := MustNew(cfg)
	arr := NewArrayBlocked[int64](m, "t", 64)
	mustRun(t, m, func(p *Proc) {
		p.SetPhase("rewind")
		store(p, arr, 0, 1, Private)
		p.clock -= 1_000_000 // deliberate model bug: time flows back 1 µs
		store(p, arr, 1, 1, Private)
		p.SetPhase("")
	})
	ck := m.Checker()
	if ck.Count() == 0 {
		t.Fatal("clock regression went undetected")
	}
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "clock-monotonic") {
		t.Fatalf("Err() = %v, want clock-monotonic violation", err)
	}
	if !strings.Contains(err.Error(), `phase="rewind"`) {
		t.Errorf("violation should name the phase: %v", err)
	}
}

// TestParanoidIdentityIsExact moves a processor's clock forward by one
// picosecond that no bucket is charged with. The clock and the
// BUSY+LMEM+RMEM+SYNC ledger are integer picoseconds, so the accounting
// identity is an equality and the drift must be reported; under a
// relative tolerance it would not be.
func TestParanoidIdentityIsExact(t *testing.T) {
	cfg := Origin2000Scaled(1)
	cfg.ParanoidSampleEvery = 1
	m := MustNew(cfg)
	arr := NewArrayBlocked[int64](m, "t", 1<<12)
	mustRun(t, m, func(p *Proc) {
		arr.LoadRangeWith(p, 0, 1<<12, Private, 3)
		p.clock++ // one picosecond that no bucket is charged with
	})
	vs := m.Checker().Violations()
	if len(vs) != 1 || vs[0].Kind != "breakdown-identity" || vs[0].Proc != 0 {
		t.Fatalf("violations = %+v, want one breakdown-identity on proc 0", vs)
	}
}

// TestParanoidCatchesDroppedLine is the mutation test for the cache
// oracle: it drops a resident line from the fast cache behind the
// shadow's back (the reference cache still holds it), so the next access
// misses where the reference model hits, and the checker must flag that
// access with the processor and the faulting address.
func TestParanoidCatchesDroppedLine(t *testing.T) {
	cfg := Origin2000Scaled(1)
	cfg.ParanoidSampleEvery = 1
	m := MustNew(cfg)
	arr := NewArrayBlocked[int64](m, "a", 1<<13)
	const elem = 1 << 12
	mustRun(t, m, func(p *Proc) {
		arr.Load(p, elem, Private)
		if err := m.Checker().Err(); err != nil {
			t.Errorf("violation before the mutation: %v", err)
		}
		if present, _ := p.cache.Invalidate(arr.Addr(elem)); !present {
			t.Error("line not resident after its load")
		}
		arr.Load(p, elem, Private)
	})
	vs := m.Checker().Violations()
	if len(vs) == 0 {
		t.Fatal("dropped cache line went undetected")
	}
	v := vs[0]
	if v.Kind != "cache-access" || v.Proc != 0 || v.Addr != uint64(arr.Addr(elem)) {
		t.Errorf("want a cache-access violation naming proc 0 and %#x, got %+v",
			uint64(arr.Addr(elem)), v)
	}
}

// TestParanoidDisabledZeroAlloc enforces the nil-checker contract,
// mirroring the trace subsystem's TestTracingDisabledZeroAlloc: with
// paranoid mode off (the default), the per-access hook guards allocate
// nothing — across cache hits, cold misses (the miss-charge hook),
// evictions with writebacks, phase switches and invalidations.
func TestParanoidDisabledZeroAlloc(t *testing.T) {
	m := MustNew(Origin2000Scaled(2))
	if m.Checker() != nil {
		t.Fatal("checker present on a non-paranoid machine")
	}
	const n = 1 << 15
	arr := NewArrayBlocked[int64](m, "t", n)
	p := m.Proc(0)
	p.resetClock()
	p.SetPhase("hot") // pre-warm the phase accumulator
	store(p, arr, 0, 1, Private)

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.SetPhase("hot")
		// Strided stores churn the cache: hits, cold misses and dirty
		// evictions all cross the paranoid hook sites.
		store(p, arr, (i*61)&(n-1), 1, Private)
		arr.Load(p, (i*97)&(n-1), SharedRead)
		p.InvalidateRange(arr.Addr((i*13)&(n-1)), 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("hot path with paranoid mode off allocates %.1f/op, want 0", allocs)
	}
}
