package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// compareFiles prints the relative difference of every metric of b
// against a (a is the base of every ratio) and judges it against the
// declared bounds: an end-to-end metric, or a layer metric that carries
// a bound, may worsen by at most its bound; counts and sim_digest must
// match exactly. It returns 0 when b is within bounds, 1 when not, 2 on
// unusable input. Layer metrics without a bound are listed, not judged.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	var a, b document
	for path, doc := range map[string]*document{aPath: &a, bPath: &b} {
		if err := readJSON(path, doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if doc.Schema != "bench/v1" {
			fmt.Fprintf(stderr, "bench: %s is not a bench/v1 result document\n", path)
			return 2
		}
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(stderr, "bench: documents differ in seed (%d, %d) or -quick; counts and digests are only comparable for one seed\n", a.Seed, b.Seed)
		return 2
	}
	bad := 0
	for _, ra := range a.Runs {
		rb := findRun(&b, ra.Workload, ra.Trace)
		if rb == nil {
			fmt.Fprintf(stdout, "%s trace=%v: missing from %s\n", ra.Workload, ra.Trace, bPath)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "== %s (%s)\n", ra.Workload, map[bool]string{false: "end-to-end", true: "per-layer"}[ra.Trace])
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(stdout, "  sim_digest differs: %s -> %s  FAIL\n", ra.SimDigest, rb.SimDigest)
			bad++
		}
		if rb.Failed > 0 {
			fmt.Fprintf(stdout, "  failed %d of %d operations  FAIL\n", rb.Failed, rb.Attempted)
			bad++
		}
		for _, name := range metricOrder(ra.Trace) {
			va, okA := ra.Metrics[name]
			vb, okB := rb.Metrics[name]
			if !okA || !okB {
				continue
			}
			bound, better, exact, listed := rule(name, ra.Workload)
			if !listed {
				continue
			}
			verdict := ""
			switch {
			case exact:
				if va.Value != vb.Value {
					verdict = "FAIL (counts must match exactly)"
				}
			case bound > 0:
				if worsening(va.Value, vb.Value, better) > bound {
					verdict = fmt.Sprintf("FAIL (bound %.0f%%)", bound*100)
				} else {
					verdict = "ok"
				}
			}
			if va.Value == 0 && vb.Value == 0 && verdict == "" {
				continue
			}
			if verdict != "" && verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "  %-42s %14.6g -> %-14.6g %+7.2f%% %s\n",
				name, va.Value, vb.Value, relDiff(va.Value, vb.Value)*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d out of bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "within bounds")
	return 0
}

func findRun(d *document, workload string, trace bool) *result {
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

func metricOrder(trace bool) []string {
	var names []string
	if !trace {
		for _, m := range endToEndMetrics {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range layerMetrics {
		names = append(names, m.Name)
	}
	return names
}

// rule returns how -compare treats a metric on a workload: listed is
// false for a layer metric the workload does not report.
func rule(name, workload string) (bound float64, better string, exact, listed bool) {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Bound, m.Better, false, true
		}
	}
	m := layerByName(name)
	if m == nil || !slices.Contains(m.Workloads, workload) {
		return 0, "", false, false
	}
	return m.Bound, m.Better, m.Kind == kCount, true
}

// relDiff is (b-a)/a; 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// worsening is the share of a by which b is worse, negative when b is
// better.
func worsening(a, b float64, better string) float64 {
	d := relDiff(a, b)
	if better == "higher" {
		return -d
	}
	return d
}
