package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestSharingTxClassAlignment pins the cast in missCharge: the machine's
// Sharing constants must mirror trace.TxClass order so that
// trace.TxClass(sh) is the correct class label.
func TestSharingTxClassAlignment(t *testing.T) {
	want := map[Sharing]string{
		Private:        "private",
		RemoteProduced: "remote-produced",
		SharedRead:     "shared-read",
		ConflictWrite:  "conflict-write",
		DirtyElsewhere: "dirty-elsewhere",
	}
	for sh, name := range want {
		if got := trace.TxClass(sh).String(); got != name {
			t.Errorf("trace.TxClass(%d).String() = %q, want %q — Sharing and TxClass orders diverged", sh, got, name)
		}
	}
	if trace.TxWriteback.String() != "writeback" {
		t.Errorf("TxWriteback.String() = %q", trace.TxWriteback.String())
	}
}

// TestRunAttachesTrace checks EnableTracing produces a populated trace:
// spans from SetPhase, barrier events, tx counts, and the standard
// metrics — and that tracing stays off by default.
func TestRunAttachesTrace(t *testing.T) {
	m := MustNew(Origin2000Scaled(4))
	arr := NewArrayBlocked[int64](m, "t", 4096)
	body := func(p *Proc) {
		p.SetPhase("work")
		lo, hi := p.ID*1024, (p.ID+1)*1024
		for i := lo; i < hi; i++ {
			store(p, arr, i, int64(i), Private)
		}
		m.Barrier(p)
		p.SetPhase("read")
		for i := lo; i < hi; i++ {
			arr.Load(p, i, Private)
		}
		p.SetPhase("")
	}

	res := mustRun(t, m, body)
	if res.Trace != nil {
		t.Fatal("tracing off by default, but Result.Trace != nil")
	}

	m.EnableTracing()
	m.ResetMemory() // cold caches again, so the traced run misses
	res = mustRun(t, m, body)
	tr := res.Trace
	if tr == nil {
		t.Fatal("EnableTracing set but Result.Trace == nil")
	}
	if tr.TimeNs != res.TimeNs {
		t.Errorf("trace TimeNs=%v, result TimeNs=%v", tr.TimeNs, res.TimeNs)
	}
	if len(tr.Procs) != 4 {
		t.Fatalf("trace has %d tracks, want 4", len(tr.Procs))
	}
	for _, pt := range tr.Procs {
		if len(pt.Spans) != 2 {
			t.Errorf("proc %d: %d spans, want 2 (work, read)", pt.ID, len(pt.Spans))
			continue
		}
		if pt.Spans[0].Name != "work" || pt.Spans[1].Name != "read" {
			t.Errorf("proc %d: span names %q/%q", pt.ID, pt.Spans[0].Name, pt.Spans[1].Name)
		}
		for _, s := range pt.Spans {
			if s.End < s.Start {
				t.Errorf("proc %d: span %q ends before it starts", pt.ID, s.Name)
			}
		}
		var barriers int
		for _, e := range pt.Events {
			if e.Kind == trace.EvBarrier {
				barriers++
			}
			if e.Dur < 0 {
				t.Errorf("proc %d: negative event duration %v", pt.ID, e.Dur)
			}
		}
		if barriers != 1 {
			t.Errorf("proc %d: %d barrier events, want 1", pt.ID, barriers)
		}
	}
	if tx := tr.TxTotals(); tx[trace.TxPrivate] == 0 {
		t.Error("no private-class transactions recorded despite cold misses")
	}
	for _, key := range []string{
		"time_ns", "procs",
		"breakdown.busy_ns", "breakdown.lmem_ns", "breakdown.rmem_ns", "breakdown.sync_ns",
		"phase.work.busy_ns",
		"traffic.remote_bytes", "traffic.messages", "traffic.protocol_transactions",
		"tx.private", "tx.writeback",
		"cache.accesses", "cache.misses", "cache.miss_rate", "cache.writebacks",
		"tlb.misses", "events", "spans",
	} {
		if _, ok := tr.Metrics()[key]; !ok {
			t.Errorf("standard metric %q missing", key)
		}
	}
	// The "read" phase's loads all hit the warm cache, so the phase
	// accumulates zero charges; zero-charge phases are pruned from the
	// snapshot (the BUSY+LMEM+RMEM+SYNC identity holds trivially for
	// every reported phase), so its breakdown metric is absent while its
	// span above is still recorded.
	if _, ok := tr.Metrics()["phase.read.busy_ns"]; ok {
		t.Error("zero-charge phase \"read\" should be pruned from the metrics export")
	}
	if got := tr.Metric("procs"); got != 4 {
		t.Errorf("metric procs=%v, want 4", got)
	}

	// The next run must not inherit the previous run's trace state.
	res2 := mustRun(t, m, body)
	if res2.Trace == nil || res2.Trace == tr {
		t.Error("second traced run should build a fresh trace")
	}
}

// TestMachineTraceDeterministic runs the same parallel body twice and
// requires byte-identical Chrome and metrics exports.
func TestMachineTraceDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		m := MustNew(Origin2000Scaled(8))
		m.EnableTracing()
		arr := NewArrayBlocked[int64](m, "t", 8*512)
		res := mustRun(t, m, func(p *Proc) {
			p.SetPhase("fill")
			lo, hi := p.ID*512, (p.ID+1)*512
			for i := lo; i < hi; i++ {
				store(p, arr, i, int64(i), Private)
			}
			m.Barrier(p)
			p.SetPhase("steal")
			peer := (p.ID + 1) % 8
			for i := peer * 512; i < peer*512+512; i++ {
				arr.Load(p, i, RemoteProduced)
			}
			p.SetPhase("")
		})
		var chrome, metrics bytes.Buffer
		if err := trace.WriteChrome(&chrome, res.Trace); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		return chrome.Bytes(), metrics.Bytes()
	}
	c1, m1 := export()
	c2, m2 := export()
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome exports of identical runs differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics exports of identical runs differ")
	}
}

// TestFillMetricsManyPhasesDeterministic pins the determinism gap in
// fillMetrics: it aggregates per-phase breakdowns in a
// map[string]Breakdown and ranges over it into the trace's map-backed
// metric set, so both the aggregation and the insertion order follow
// Go's randomized map iteration. With sixteen phases two runs almost
// never iterate alike, yet identical traced runs must export
// byte-identical metrics JSON, with every phase present.
func TestFillMetricsManyPhasesDeterministic(t *testing.T) {
	const phases = 16
	export := func() []byte {
		m := MustNew(Origin2000Scaled(4))
		m.EnableTracing()
		arr := NewArrayBlocked[int64](m, "t", 4*phases*64)
		res := mustRun(t, m, func(p *Proc) {
			for ph := 0; ph < phases; ph++ {
				p.SetPhase(fmt.Sprintf("ph%02d", ph))
				lo := (p.ID*phases + ph) * 64
				for i := lo; i < lo+64; i++ {
					p.access(arr.Addr(i), true, Private, streamed)
					p.Compute(ph + 1)
				}
				m.Barrier(p)
			}
			p.SetPhase("")
		})
		var buf bytes.Buffer
		if err := res.Trace.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for ph := 0; ph < phases; ph++ {
		if key := fmt.Sprintf("\"phase.ph%02d.busy_ns\"", ph); !bytes.Contains(first, []byte(key)) {
			t.Fatalf("metrics export lacks %s", key)
		}
	}
	for run := 1; run < 6; run++ {
		if again := export(); !bytes.Equal(first, again) {
			t.Fatalf("run %d: metrics export differs from the first run's", run)
		}
	}
}

// TestTracingDisabledZeroAlloc enforces the nil-sink contract: with
// tracing disabled, the per-access emission guards allocate nothing.
func TestTracingDisabledZeroAlloc(t *testing.T) {
	m := MustNew(Origin2000Scaled(2))
	arr := NewArrayBlocked[int64](m, "t", 4096)
	p := m.Proc(0)
	p.resetClock()
	p.SetPhase("hot") // pre-warm the phase accumulator
	// Touch the array once so the TLB/cache structures are built.
	store(p, arr, 0, 1, Private)

	allocs := testing.AllocsPerRun(1000, func() {
		p.ComputeNs(1)
		p.SetPhase("hot")
		store(p, arr, 1, 2, Private)
		arr.Load(p, 1, Private)
		p.WaitUntil(p.Now() - 1)
		p.TraceEvent(trace.EvSend, 1, 64, 10)
	})
	if allocs != 0 {
		t.Errorf("hot path with tracing disabled allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkAccessTracingOff / On quantify the cost of the trace hooks on
// the memory-access hot path.
func BenchmarkAccessTracingOff(b *testing.B) { benchAccess(b, false) }
func BenchmarkAccessTracingOn(b *testing.B)  { benchAccess(b, true) }

func benchAccess(b *testing.B, tracing bool) {
	m := MustNew(Origin2000Scaled(2))
	if tracing {
		m.EnableTracing()
	}
	arr := NewArrayBlocked[int64](m, "t", 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<12) == 0 {
			b.StopTimer()
			mustRun(b, m, func(p *Proc) {}) // reset clocks (and trace sink state)
			b.StartTimer()
		}
		p := m.Proc(0)
		store(p, arr, i&((1<<14)-1), int64(i), Private)
	}
}
