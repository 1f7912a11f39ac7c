package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// synthetic builds a small two-processor trace exercising every event
// kind, an instant event, and an unterminated span.
func synthetic() *Trace {
	t := New(2)
	t.Label = "radix/shmem n=65536 p=2"
	t.TimeNs = 5000
	p0, p1 := t.Procs[0], t.Procs[1]
	p0.BeginSpan("count", 0)
	p0.BeginSpan("permute", 1000) // implicitly closes "count"
	p0.Emit(EvSend, 1200, 300, 1, 4096)
	p0.Emit(EvBarrier, 2000, 500, -1, 0)
	p0.CloseSpan(2500)
	p1.BeginSpan("count", 0)
	p1.Emit(EvGet, 100, 0, 0, 64) // instant
	p1.CountTx(TxSharedRead)
	p1.CountTx(TxSharedRead)
	p1.CountTx(TxWriteback)
	t.AddMetric("time_ns", 5000)
	t.AddMetric("breakdown.busy_ns", 1234.5)
	return t
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(1)
	pt := tr.Procs[0]
	pt.BeginSpan("a", 0)
	pt.BeginSpan("b", 10)
	if got := pt.Spans[0].End; got != 10 {
		t.Errorf("BeginSpan did not close previous span: End=%v, want 10", got)
	}
	pt.CloseSpan(20)
	pt.CloseSpan(30) // double close is a no-op
	if got := pt.Spans[1].End; got != 20 {
		t.Errorf("CloseSpan: End=%v, want 20", got)
	}
	if tr.SpanCount() != 2 {
		t.Errorf("SpanCount=%d, want 2", tr.SpanCount())
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvSend: "send", EvRecv: "recv", EvPut: "put", EvGet: "get",
		EvFlowStall: "flow-stall", EvMsgWait: "msg-wait", EvBarrier: "barrier",
	}
	if len(want) != int(numEventKinds) {
		t.Fatalf("test covers %d kinds, package has %d", len(want), numEventKinds)
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestTxTotals(t *testing.T) {
	tr := synthetic()
	tx := tr.TxTotals()
	if tx[TxSharedRead] != 2 || tx[TxWriteback] != 1 {
		t.Errorf("TxTotals = %v, want shared-read=2 writeback=1", tx)
	}
}

// TestWriteChromeValidJSON checks the exporter emits well-formed
// trace_event JSON with the expected structure.
func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var meta, spans, complete, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			if e.Name == "count" || e.Name == "permute" {
				spans++
			} else {
				complete++
			}
			if e.Dur < 0 {
				t.Errorf("negative duration on %q", e.Name)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// 1 process_name + 2 thread_name; 3 spans; send+barrier complete; 1 instant.
	if meta != 3 || spans != 3 || complete != 2 || instants != 1 {
		t.Errorf("event census meta=%d spans=%d complete=%d instants=%d, want 3/3/2/1",
			meta, spans, complete, instants)
	}
	if !strings.Contains(buf.String(), `"radix/shmem n=65536 p=2"`) {
		t.Error("trace label missing from process_name metadata")
	}
}

// TestWriteChromeDeterministic proves identical traces serialize to
// identical bytes.
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, synthetic()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, synthetic()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same trace differ")
	}
}

// TestWriteMetrics checks the metrics exporter is valid JSON with sorted
// keys and deterministic bytes.
func TestWriteMetrics(t *testing.T) {
	tr := synthetic()
	var a, b bytes.Buffer
	if err := tr.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two metric exports differ")
	}
	var m map[string]float64
	if err := json.Unmarshal(a.Bytes(), &m); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v\n%s", err, a.String())
	}
	if m["time_ns"] != 5000 || m["breakdown.busy_ns"] != 1234.5 {
		t.Errorf("metrics round-trip mismatch: %v", m)
	}
	// Keys must appear in sorted order in the raw bytes.
	i := strings.Index(a.String(), "breakdown.busy_ns")
	j := strings.Index(a.String(), "time_ns")
	if i < 0 || j < 0 || i > j {
		t.Errorf("metric keys not in sorted order:\n%s", a.String())
	}
}

// TestWriteMetricsInsertionOrderInvariant pins what makes the machine
// layer's fillMetrics safe: it ranges over a map of phases into this
// map-backed metric set, so insertion order varies from run to run, and
// only the exporter's key sort keeps the rendered bytes stable. The same
// metrics inserted in opposite orders must render identically.
func TestWriteMetricsInsertionOrderInvariant(t *testing.T) {
	keys := []string{"time_ns", "phase.merge.busy_ns", "phase.count.busy_ns",
		"breakdown.sync_ns", "tx.private", "cache.miss_rate", "phase.a.rmem_ns"}
	fwd, rev := New(1), New(1)
	for i, k := range keys {
		fwd.AddMetric(k, float64(i)+0.25)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev.AddMetric(keys[i], float64(i)+0.25)
	}
	var a, b bytes.Buffer
	if err := fwd.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("insertion order leaks into the export:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestMetricsAccessors(t *testing.T) {
	tr := New(1)
	tr.AddMetric("x", 2.5)
	if tr.Metric("x") != 2.5 || tr.Metric("absent") != 0 {
		t.Error("Metric accessor wrong")
	}
	cp := tr.Metrics()
	cp["x"] = 9
	if tr.Metric("x") != 2.5 {
		t.Error("Metrics() did not copy")
	}
	if math.IsNaN(tr.Metric("x")) {
		t.Error("unexpected NaN")
	}
}
