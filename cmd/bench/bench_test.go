package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/sorts"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames checks every declared name and unit against the
// driver's limits, and that no name is used twice.
func TestDeclaredNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside %s", kind, name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside %s", kind, name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name, "")
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEndMetrics {
		check("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerMetrics {
		check("per-layer", m.Name, m.Unit)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", n)
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the driver takes 1 to 16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	if m := endToEndMetrics[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
}

// TestManifestIsBenchmarkJSON keeps the lists in code and the root
// BENCHMARK.json identical.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the driver takes 64 KiB", len(onDisk))
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the declarations in metrics.go; regenerate it with: go run -C cmd/bench . -manifest > BENCHMARK.json")
	}
}

// TestLayerMetricsNameTheirTarget checks that every per-layer metric
// lists declared workloads and, when it predicts a move, names a
// declared end-to-end metric and workload.
func TestLayerMetricsNameTheirTarget(t *testing.T) {
	isWorkload := func(name string) bool {
		for _, w := range workloads {
			if w.Name == name {
				return true
			}
		}
		return false
	}
	for _, m := range layerMetrics {
		if len(m.Workloads) == 0 {
			t.Errorf("%s: reported by no workload", m.Name)
		}
		for _, w := range m.Workloads {
			if !isWorkload(w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		if m.Moves == "" {
			continue
		}
		metric, workload, ok := strings.Cut(m.Moves, "/")
		if b, _, _, listed := rule(metric, workload); !ok || !listed || b == 0 || !isWorkload(workload) {
			t.Errorf("%s: moves %q is not an end-to-end metric / workload", m.Name, m.Moves)
		}
	}
}

// TestCellIDs round-trips every declared cell id.
func TestCellIDs(t *testing.T) {
	for _, list := range [][]string{streamCells, commCells, quickStreamCells, quickCommCells} {
		for _, id := range list {
			e, err := parseCell(id, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := cellID(e); got != id {
				t.Errorf("cellID(parseCell(%q)) = %q", id, got)
			}
			if e.Seed != 7 || e.Radix != 8 {
				t.Errorf("%s: seed %d radix %d", id, e.Seed, e.Radix)
			}
		}
	}
	for _, bad := range []string{"radix-mpi", "radix-mpi-16-p4", "bogus-mpi-n10-p4", "radix-mpi-n10-p4-moebius"} {
		if _, err := parseCell(bad, 1); err == nil {
			t.Errorf("parseCell(%q) succeeded", bad)
		}
	}
}

// TestPercentileKeepsTenBeyond: a tail percentile is reported only when
// at least ten samples lie beyond it.
func TestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{39, 75, false}, {40, 75, true}, {99, 90, false}, {100, 90, true}, {199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true}, {9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := enoughBeyond(c.n, c.p); got != c.want {
			t.Errorf("enoughBeyond(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got := tailAt(vs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := tailAt(vs[:999], 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0: fewer than ten beyond", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestHostFactor: a run's factor is the nominal walk step over the
// median of its samples, damped, and 1 without calibration.
func TestHostFactor(t *testing.T) {
	c := &calibrator{samples: []float64{2 * calNominalNs, calNominalNs, 3 * calNominalNs}}
	if got, want := c.factor(), math.Pow(0.5, calDamping); got != want {
		t.Errorf("factor = %v, want %v", got, want)
	}
	var none *calibrator
	if none.factor() != 1 || none.sample() != nil {
		t.Error("a nil calibrator must sample nothing and have factor 1")
	}
	res := &result{Metrics: map[string]value{}}
	reportEndToEnd(res, 0.5, []float64{4}, []float64{100, 300, 200}, []float64{8}, []float64{2}, value{64, "MB", 1})
	if res.Metrics["round_ms"].Value != 100 || res.Metrics["setup_s"].Value != 2 || res.Metrics["peak_rss_mb"].Value != 64 {
		t.Errorf("metrics at nominal speed = %+v", res.Metrics)
	}
}

// TestSelfTime: a span's self time is its duration minus the union of
// its children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "a", Start: at(10), End: at(30)},
		{ID: 2, Parent: 0, Name: "b", Start: at(20), End: at(50)},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: at(90), End: at(120)}, // clipped at 100
		{ID: 4, Parent: 2, Name: "b.inner", Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	for id, want := range []time.Duration{at(50), at(20), at(20), at(30), at(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := spanCoverageMin(spans); got != 0.5 {
		t.Errorf("coverage of the root span = %v, want 0.5", got)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, "test", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(spans)+1 {
		t.Errorf("chrome trace: %v, %d events, want %d", err, len(doc.TraceEvents), len(spans)+1)
	}
}

// TestStagedReplicaMatchesRun: the staged replica returns bit-equal
// simulated results and the same sorted keys as repro.Run, for all 13
// parallel programs and the sequential baseline.
func TestStagedReplicaMatchesRun(t *testing.T) {
	exps := []repro.Experiment{{Algorithm: repro.Radix, Model: repro.Seq, N: 1 << 10, Procs: 1, Seed: 3}}
	for _, alg := range []repro.Algorithm{repro.Radix, repro.Sample, repro.Psrs} {
		for _, model := range repro.Models(alg) {
			exps = append(exps, repro.Experiment{Algorithm: alg, Model: model, N: 1 << 10, Procs: 4, Seed: 3})
		}
	}
	if len(exps) != 14 {
		t.Fatalf("%d programs, want 13 parallel + seq", len(exps))
	}
	for _, e := range exps {
		want, err := repro.Run(e)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		root := rec.begin(-1, "cell", "test")
		got, err := stagedRun(rec, root, "test", e)
		rec.end(root)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Algorithm, e.Model, err)
		}
		digest := func(r *sorts.Result) string {
			h := newDigest()
			digestResult(h, "test", r)
			return digestString(h)
		}
		if digest(got) != digest(want.Result) {
			t.Errorf("%s/%s: staged replica simulated %v ns with counts %+v, repro.Run %v ns with %+v (or breakdowns differ)",
				e.Algorithm, e.Model, got.TimeNs(), countsOf(got), want.TimeNs, countsOf(want.Result))
		}
		for i := range got.Sorted {
			if got.Sorted[i] != want.Result.Sorted[i] {
				t.Fatalf("%s/%s: sorted keys differ at %d", e.Algorithm, e.Model, i)
			}
		}
		if n := len(rec.snapshot()); n != 6 {
			t.Errorf("%s/%s: %d spans, want the cell and its five layers", e.Algorithm, e.Model, n)
		}
	}
}

// TestCheckSorted: the bench's own output check catches an unsorted
// output and a changed multiset.
func TestCheckSorted(t *testing.T) {
	in := []uint32{5, 1, 4, 1, 3}
	want := fingerprintOf(in)
	if err := checkSorted([]uint32{1, 1, 3, 4, 5}, want); err != nil {
		t.Error(err)
	}
	if checkSorted([]uint32{1, 3, 1, 4, 5}, want) == nil {
		t.Error("an unsorted output passed")
	}
	if checkSorted([]uint32{1, 2, 2, 4, 5}, want) == nil {
		t.Error("an output with the same sum but other keys passed")
	}
}

// TestQuickRuns drives every workload through both passes at -quick
// size and checks the driver's line: exactly the declared metric sets,
// nothing failed.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator and builds simd")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.Name, "-quick", "-seed", "2", "-trace", trace, "-trace-dir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, failed %d of %d\n%s", w.Name, trace, line.Correct, line.Failed, line.Attempted, stderr.String())
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range endToEndMetrics {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range layerMetrics {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %s: metric %s missing or in %q, want %q", w.Name, trace, name, got.Unit, unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, got.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.Name, err)
		}
	}
}

// TestCompare: identical documents are within bounds; a worsened
// end-to-end metric, a changed count and a changed digest are not.
func TestCompare(t *testing.T) {
	base := func() *document {
		return &document{Schema: "bench/v1", Seed: 1, Runs: []*result{
			{Workload: "stream-big", Correct: true, Attempted: 7, SimDigest: "abc", Metrics: map[string]value{
				"round_ms": {Value: 2000, Unit: "ms"}, "setup_s": {Value: 2, Unit: "s"},
			}},
			{Workload: "simd-serve", Trace: true, Correct: true, Attempted: 9, Metrics: map[string]value{
				"warm_rps": {Value: 10000, Unit: "1/s"}, "machine.accesses": {Value: 5e8, Unit: "count"},
				"cache.lane_hit_ns": {Value: 1.5, Unit: "ns"},
			}},
		}}
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, d); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", base())
	for _, c := range []struct {
		name   string
		change func(*document)
		want   int
	}{
		{"same", func(*document) {}, 0},
		{"within", func(d *document) { d.Runs[0].Metrics["round_ms"] = value{Value: 2100, Unit: "ms"} }, 0},
		{"slower", func(d *document) { d.Runs[0].Metrics["round_ms"] = value{Value: 2600, Unit: "ms"} }, 1},
		{"faster", func(d *document) { d.Runs[0].Metrics["round_ms"] = value{Value: 1000, Unit: "ms"} }, 0},
		{"fewer-rps", func(d *document) { d.Runs[1].Metrics["warm_rps"] = value{Value: 8000, Unit: "1/s"} }, 1},
		{"more-rps", func(d *document) { d.Runs[1].Metrics["warm_rps"] = value{Value: 15000, Unit: "1/s"} }, 0},
		{"count", func(d *document) { d.Runs[1].Metrics["machine.accesses"] = value{Value: 5e8 + 1, Unit: "count"} }, 1},
		{"unbounded-layer", func(d *document) { d.Runs[1].Metrics["cache.lane_hit_ns"] = value{Value: 9, Unit: "ns"} }, 0},
		{"digest", func(d *document) { d.Runs[0].SimDigest = "abd" }, 1},
		{"failed", func(d *document) { d.Runs[0].Failed = 1 }, 1},
		{"seed", func(d *document) { d.Seed = 2 }, 2},
	} {
		d := base()
		c.change(d)
		var stdout, stderr bytes.Buffer
		if got := compareFiles(a, write(c.name+".json", d), &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}
}
