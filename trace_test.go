package repro

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/keys"
	"repro/internal/trace"
)

// exportTrace runs e with tracing and returns the Chrome and metrics
// exports.
func exportTrace(t *testing.T, e Experiment) ([]byte, []byte) {
	t.Helper()
	e.Trace = true
	out, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Trace()
	if tr == nil {
		t.Fatal("Experiment.Trace set but Outcome.Trace() == nil")
	}
	var chrome, metrics bytes.Buffer
	if err := trace.WriteChrome(&chrome, tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	return chrome.Bytes(), metrics.Bytes()
}

// TestTraceDeterminism is the tentpole's core guarantee: two runs of the
// same Experiment produce byte-identical trace and metrics exports, for
// every programming model.
func TestTraceDeterminism(t *testing.T) {
	cases := []Experiment{
		{Algorithm: Radix, Model: CCSAS, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Radix, Model: CCSASNew, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Radix, Model: MPI, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Radix, Model: SHMEM, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Sample, Model: CCSAS, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Sample, Model: MPI, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
		{Algorithm: Sample, Model: SHMEM, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss},
	}
	for _, e := range cases {
		e := e
		t.Run(e.Label(), func(t *testing.T) {
			t.Parallel()
			c1, m1 := exportTrace(t, e)
			c2, m2 := exportTrace(t, e)
			if !bytes.Equal(c1, c2) {
				t.Error("Chrome trace exports differ between identical runs")
			}
			if !bytes.Equal(m1, m2) {
				t.Error("metrics exports differ between identical runs")
			}
			// And the export is valid trace_event JSON.
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(c1, &doc); err != nil {
				t.Fatalf("invalid Chrome trace JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("empty traceEvents")
			}
		})
	}
}

// TestTraceModelEventKinds checks each programming model emits its own
// typed communication events: MPI send/recv (and flow stalls under the
// 1-deep Direct window), SHMEM put/get, CC-SAS message waits on flags,
// and barriers everywhere.
func TestTraceModelEventKinds(t *testing.T) {
	count := func(e Experiment) map[trace.EventKind]int {
		e.Trace = true
		out, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[trace.EventKind]int)
		for _, pt := range out.Trace().Procs {
			for _, ev := range pt.Events {
				got[ev.Kind]++
			}
		}
		return got
	}
	base := Experiment{Algorithm: Radix, N: 1 << 14, Procs: 8, Radix: 8, Dist: keys.Gauss}

	mpiE := base
	mpiE.Model = MPI
	mpiKinds := count(mpiE)
	if mpiKinds[trace.EvSend] == 0 || mpiKinds[trace.EvRecv] == 0 {
		t.Errorf("MPI radix emitted no send/recv events: %v", mpiKinds)
	}
	if mpiKinds[trace.EvFlowStall] == 0 {
		t.Errorf("Direct MPI (1-deep window) emitted no flow-stall events: %v", mpiKinds)
	}

	shE := base
	shE.Model = SHMEM
	shKinds := count(shE)
	if shKinds[trace.EvGet]+shKinds[trace.EvPut] == 0 {
		t.Errorf("SHMEM radix emitted no put/get events: %v", shKinds)
	}
	if shKinds[trace.EvBarrier] == 0 {
		t.Errorf("SHMEM radix emitted no barrier events: %v", shKinds)
	}

	ccE := base
	ccE.Model = CCSAS
	ccKinds := count(ccE)
	if ccKinds[trace.EvMsgWait] == 0 {
		t.Errorf("CC-SAS radix (prefix-tree flags) emitted no msg-wait events: %v", ccKinds)
	}
	if ccKinds[trace.EvBarrier] == 0 {
		t.Errorf("CC-SAS radix emitted no barrier events: %v", ccKinds)
	}
}

// TestTraceDisabledByDefault checks tracing stays off (nil sink) unless
// requested.
func TestTraceDisabledByDefault(t *testing.T) {
	out, err := Run(Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4, Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace() != nil {
		t.Error("Outcome.Trace() != nil for an untraced experiment")
	}
}

// TestHarnessTraceParallelismInvariance proves the harness's trace
// stream is byte-identical at -j 1 and -j 8 — collection order is
// submission order, never completion order.
func TestHarnessTraceParallelismInvariance(t *testing.T) {
	export := func(par int) []byte {
		opts := tinyOpts()
		opts.Sizes = SizeClasses[:1]
		opts.Trace = true
		opts.Parallelism = par
		h := NewHarness(opts)
		if _, err := h.Figure3(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, h.Traces()...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1 := export(1)
	j8 := export(8)
	if !bytes.Equal(j1, j8) {
		t.Error("harness trace bytes differ between -j 1 and -j 8")
	}
	if len(j1) == 0 {
		t.Error("empty export")
	}
}

// TestTracePhaseMetricsCoverTotal checks the per-phase metric breakdowns
// sum (within float tolerance) to the whole-run breakdown: no charge
// escapes phase attribution in any model's sort.
func TestTracePhaseMetricsCoverTotal(t *testing.T) {
	for _, model := range []Model{CCSAS, CCSASNew, MPI, SHMEM} {
		e := Experiment{Algorithm: Radix, Model: model, N: 1 << 13, Procs: 4, Radix: 8, Trace: true}
		out, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		m := out.Trace().Metrics()
		for _, bucket := range []string{"busy_ns", "lmem_ns", "rmem_ns", "sync_ns"} {
			total := m["breakdown."+bucket]
			var phased float64
			for k, v := range m {
				if len(k) > 6 && k[:6] == "phase." && k[len(k)-len(bucket):] == bucket {
					phased += v
				}
			}
			if diff := total - phased; diff > 1e-6*total+1e-3 || diff < -(1e-6*total+1e-3) {
				t.Errorf("%s: %s phases sum to %v, total %v (unlabeled charges?)",
					model, bucket, phased, total)
			}
		}
	}
}

// TestFigureTraceLabelsDistinct: the cells of a key-distribution figure
// differ only in Dist, so their trace labels (the Perfetto process
// names) must say so — before Label carried dist=, fig5 wrote eight
// identically named processes per size.
func TestFigureTraceLabelsDistinct(t *testing.T) {
	h := NewHarness(Options{Procs: []int{4}, Sizes: SizeClasses[:1], Trace: true})
	if _, err := h.Figure5(); err != nil {
		t.Fatal(err)
	}
	traces := h.Traces()
	if len(traces) != len(keys.AllDists) {
		t.Fatalf("fig5 on one size collected %d traces, want one per distribution (%d)", len(traces), len(keys.AllDists))
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if seen[tr.Label] {
			t.Errorf("two fig5 cells share the trace label %q", tr.Label)
		}
		seen[tr.Label] = true
	}
	if gauss := "radix/shmem n=65536 p=4 r=8"; !seen[gauss] {
		t.Errorf("the Gauss cell's label changed: want %q among %v", gauss, seen)
	}
}
