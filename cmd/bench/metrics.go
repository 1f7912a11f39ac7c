package main

import (
	"encoding/json"
	"slices"
)

// The benchmark's declared names. BENCHMARK.json at the repository root
// carries the same lists (bench_test.go keeps the two identical); the
// fields BENCHMARK.json has no key for — which workload a layer metric
// belongs to, which end-to-end metric it should move — live here and in
// README.md.

type workloadDecl struct {
	Name, Why string
}

var workloads = []workloadDecl{
	{"stream-big", "4M-key/64P and 1M-key/8P cells: over 85% of host time is cache lanes, TLB and stream kernels, so a cache or kernel change shows here and a plan/message/alloc change does not"},
	{"comm-small", "64K-key cells on 64-256 processors: host time is chunk-plan building, mpi/shmem messaging, barriers and allocation, so a cache-lane change predicts no change here"},
	{"paper-grid", "what a researcher waits for: every paper figure and table plus figskew through the harness grid scheduler, baseline singleflight, arena reuse and report rendering"},
	{"simd-serve", "the simd binary over HTTP: cold computes, memory-tier repeats, a restart with disk-tier fetches and a half-cached grid, so simulator speed and cache/HTTP cost move different numbers"},
}

// An endToEnd metric is reported by every workload with -trace 0. Bound
// is the share of the parent's median by which it may worsen.
type endToEnd struct {
	Name, Unit, Better string
	Bound              float64
}

// The bounds are set by the host, not by taste: on the 2-core VM this
// was sized on, ten runs on ten seeds spread (interquartile, as a share
// of the median) 3-8 % in round_ms on a quiet host and, with the
// host-speed calibration of calibrate.go, 4-10 % through a noisy half
// hour (13-31 % without it). The driver wants a benchmark's own spread
// under a third of its bound, so each is the 0.25 it allows at most.
// Claims of a gain rest on alternating pairs (README.md), not on these.
var endToEndMetrics = []endToEnd{
	// process start to end of the warm-up pass (simd-serve: cells, their
	// in-process reference results, first server start to /healthz);
	// median of three fresh set-ups
	{"setup_s", "s", "lower", 0.25},
	// median wall of one pass over the workload's full cell list
	// (simd-serve: one whole client session)
	{"round_ms", "ms", "lower", 0.25},
	// median of round wall / simulated cache accesses of that round
	{"ns_per_access", "ns", "lower", 0.25},
	// user+sys CPU per simulated cell (simd-serve: of the server processes)
	{"cpu_ms_per_cell", "ms", "lower", 0.25},
	// high-water resident set (simd-serve: of the server processes,
	// median over sessions)
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// A layerMetric is reported with -trace 1. Kind says where the number
// comes from: a span of the traced pass, a probe (a direct call on a
// synthetic input, the same in every workload), a count that repeats
// exactly for one seed, or a figure derived from the run. Only names the
// workloads listed report a value; elsewhere the metric reads 0. Moves
// is the "metric/workload" the layer is predicted to move ("" for the
// guards of ROADMAP items 4-5, which have no end-to-end metric here).
// Bound, when set, is enforced by -compare on the listed workloads: the
// four serving latencies would be end-to-end metrics had the driver's
// contract not required every end-to-end metric from every workload.
type layerMetric struct {
	Name, Unit, Better string
	Kind               string
	Workloads          []string
	Moves              string
	Bound              float64
}

const (
	kSpan  = "span"
	kProbe = "probe"
	kCount = "count"
	kRun   = "run"
)

var (
	wAll    = []string{"stream-big", "comm-small", "paper-grid", "simd-serve"}
	wMatrix = []string{"stream-big", "comm-small"}
	wStream = []string{"stream-big"}
	wComm   = []string{"comm-small"}
	wGrid   = []string{"paper-grid"}
	wServe  = []string{"simd-serve"}
)

// streamCells and commCells are the matrix workloads' cell lists.
var (
	streamCells = []string{
		"radix-ccsasnew-n22-p64", "sample-ccsas-n22-p64", "radix-shmem-n22-p64", "psrs-mpi-n22-p64",
		"radix-ccsas-n20-p8", "sample-ccsas-n20-p8", "psrs-mpi-n20-p8",
	}
	commCells = []string{
		"radix-mpi-n16-p64", "radix-mpisgi-n16-p64", "radix-shmem-n16-p64", "sample-mpi-n16-p64",
		"sample-shmem-n16-p64", "psrs-shmem-n16-p64", "radix-ccsas-n16-p64",
		"radix-mpi-n20-p128-numa2", "radix-shmem-n16-p256-fattree",
	}
	quickStreamCells = []string{"radix-ccsasnew-n18-p16", "sample-ccsas-n18-p16", "psrs-mpi-n18-p8"}
	quickCommCells   = []string{"radix-mpi-n14-p16", "sample-shmem-n14-p16", "radix-shmem-n14-p64-fattree"}
)

// gridFigures are the paper-grid figure spans, in paperfigs order.
var gridFigures = []string{
	"table1", "fig1", "fig2", "fig3", "fig7", "figpsrs", "fig4", "fig8",
	"fig5", "fig6", "fig9", "fig10", "table23", "figskew",
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	ms := []layerMetric{
		// keys
		{"keys.generate_ms", "ms", "lower", kSpan, wMatrix, "round_ms/paper-grid", 0},
		{"keys.ns_per_key.gauss", "ns", "lower", kProbe, wAll, "round_ms/paper-grid", 0},
		{"keys.ns_per_key.zipf", "ns", "lower", kProbe, wAll, "round_ms/paper-grid", 0},
		// machine
		{"machine.new_ms", "ms", "lower", kSpan, wMatrix, "round_ms/comm-small", 0},
		{"machine.release_ms", "ms", "lower", kSpan, wMatrix, "round_ms/comm-small", 0},
		{"machine.load_stream_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.count_stream_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.permute_stream_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.scatter_stream_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.cursor_access_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.elem_load_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"machine.barrier_ns", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"machine.run_spawn_us.p64", "us", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"machine.run_spawn_us.p256", "us", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"machine.new_ms.hypercube64", "ms", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"machine.new_ms.dragonfly1024", "ms", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"machine.accesses", "count", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		{"machine.cache_misses", "count", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		{"machine.tlb_misses", "count", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		{"machine.writebacks", "count", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		{"machine.protocol_tx", "count", "lower", kCount, wAll, "round_ms/comm-small", 0},
		{"machine.messages", "count", "lower", kCount, wAll, "round_ms/comm-small", 0},
		{"machine.remote_bytes", "count", "lower", kCount, wAll, "round_ms/comm-small", 0},
		{"machine.sim_ms", "ms", "lower", kCount, wAll, "round_ms/stream-big", 0},
		// cache
		{"cache.access_hit_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.access_miss_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.lane_hit_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.lane_miss_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.tlb_hit_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.tlb_miss_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.tlb_lane_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"cache.miss_rate", "ratio", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		{"cache.tlb_miss_rate", "ratio", "lower", kCount, wAll, "ns_per_access/stream-big", 0},
		// memsys, topology
		{"memsys.homeof_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"memsys.pagehome_ns", "ns", "lower", kProbe, wAll, "ns_per_access/stream-big", 0},
		{"topology.build_ms.hypercube64", "ms", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"topology.build_ms.dragonfly1024", "ms", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		// sorts
		{"sorts.call_ms", "ms", "lower", kSpan, wMatrix, "round_ms/comm-small", 0},
		{"sorts.allocs_per_cell", "count", "lower", kSpan, wMatrix, "cpu_ms_per_cell/comm-small", 0},
		{"sorts.alloc_mb_per_cell", "MB", "lower", kSpan, wMatrix, "cpu_ms_per_cell/comm-small", 0},
		// mpi, shmem, ccsas
		{"mpi.sendrecv_ns", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"mpi.sendrecv_ns.staged", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"mpi.allgather_us", "us", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"shmem.put_ns", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"shmem.get_ns", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"shmem.collect_us", "us", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"ccsas.prefix_reduce_us", "us", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		{"ccsas.flag_ns", "ns", "lower", kProbe, wAll, "round_ms/comm-small", 0},
		// repro (root harness), report
		{"repro.run_residual_ms", "ms", "lower", kSpan, wMatrix, "round_ms/stream-big", 0},
		{"repro.grid_speedup_j", "ratio", "higher", kRun, wGrid, "round_ms/paper-grid", 0},
		{"repro.host_scaling.stream-big", "ratio", "higher", kRun, wStream, "round_ms/stream-big", 0},
		{"repro.host_scaling.comm-small", "ratio", "higher", kRun, wComm, "round_ms/comm-small", 0},
		{"repro.runs", "count", "lower", kCount, wGrid, "round_ms/paper-grid", 0},
		{"report.render_ms", "ms", "lower", kSpan, wGrid, "round_ms/paper-grid", 0},
		// trace, check, stats, perfmodel: guards, no end-to-end metric
		{"trace.overhead_frac", "ratio", "lower", kRun, wStream, "", 0},
		{"trace.write_chrome_ms", "ms", "lower", kProbe, wAll, "", 0},
		{"check.paranoid_slowdown", "ratio", "lower", kProbe, wAll, "", 0},
		{"check.sampled_slowdown", "ratio", "lower", kProbe, wAll, "", 0},
		{"stats.ensemble_ms", "ms", "lower", kProbe, wAll, "", 0},
		{"perfmodel.predict_us", "us", "lower", kProbe, wAll, "", 0},
		// resultcache
		{"resultcache.key_us", "us", "lower", kProbe, wAll, "round_ms/simd-serve", 0},
		{"resultcache.get_mem_us", "us", "lower", kProbe, wAll, "round_ms/simd-serve", 0},
		{"resultcache.get_disk_us", "us", "lower", kProbe, wAll, "round_ms/simd-serve", 0},
		{"resultcache.do_miss_us", "us", "lower", kProbe, wAll, "round_ms/simd-serve", 0},
		{"resultcache.mem_hits", "count", "higher", kCount, wServe, "round_ms/simd-serve", 0},
		{"resultcache.disk_hits", "count", "higher", kCount, wServe, "round_ms/simd-serve", 0},
		{"resultcache.computed", "count", "lower", kCount, wServe, "round_ms/simd-serve", 0},
		{"resultcache.shared", "count", "lower", kCount, wServe, "round_ms/simd-serve", 0},
		{"resultcache.errors", "count", "lower", kCount, wServe, "round_ms/simd-serve", 0},
		{"resultcache.evictions", "count", "lower", kCount, wServe, "round_ms/simd-serve", 0},
		// simd, client-observed
		{"cold_ms_p50", "ms", "lower", kSpan, wServe, "round_ms/simd-serve", 0.08},
		{"warm_us_p50", "us", "lower", kSpan, wServe, "round_ms/simd-serve", 0.08},
		{"warm_rps", "1/s", "higher", kSpan, wServe, "round_ms/simd-serve", 0.08},
		{"disk_us_p50", "us", "lower", kSpan, wServe, "round_ms/simd-serve", 0.10},
		{"simd.warm_us_p99", "us", "lower", kSpan, wServe, "round_ms/simd-serve", 0},
		{"simd.cold_overhead_ms", "ms", "lower", kSpan, wServe, "round_ms/simd-serve", 0},
		{"simd.grid_cells_per_s", "1/s", "higher", kSpan, wServe, "round_ms/simd-serve", 0},
		{"simd.resp_bytes_p50", "count", "lower", kCount, wServe, "round_ms/simd-serve", 0},
		{"simd.start_ms", "ms", "lower", kSpan, wServe, "setup_s/simd-serve", 0},
		{"simd.drain_ms", "ms", "lower", kSpan, wServe, "round_ms/simd-serve", 0},
		{"simd.result_get_us", "us", "lower", kSpan, wServe, "round_ms/simd-serve", 0},
		// runtime and the bench itself
		{"runtime.gc_cpu_frac", "ratio", "lower", kRun, wAll, "cpu_ms_per_cell/comm-small", 0},
		{"runtime.mutex_wait_s", "s", "lower", kRun, wAll, "cpu_ms_per_cell/comm-small", 0},
		{"runtime.sched_lat_p50_us", "us", "lower", kRun, wAll, "cpu_ms_per_cell/comm-small", 0},
		{"runtime.heap_peak_mb", "MB", "lower", kRun, wAll, "peak_rss_mb/stream-big", 0},
		{"bench.trace_overhead_frac", "ratio", "lower", kRun, wAll, "", 0},
		{"bench.span_coverage_min", "ratio", "higher", kRun, wAll, "", 0},
		{"bench.build_s", "s", "lower", kRun, wServe, "", 0},
		{"bench.host_factor", "ratio", "higher", kRun, wAll, "", 0},
	}
	for _, id := range append(append([]string(nil), streamCells...), commCells...) {
		w, moves := wStream, "round_ms/stream-big"
		if !slices.Contains(streamCells, id) {
			w, moves = wComm, "round_ms/comm-small"
		}
		ms = append(ms, layerMetric{"cell_ms." + id, "ms", "lower", kSpan, w, moves, 0})
	}
	for _, f := range gridFigures {
		ms = append(ms, layerMetric{"repro.figure_ms." + f, "ms", "lower", kSpan, wGrid, "round_ms/paper-grid", 0})
	}
	return ms
}

func layerByName(name string) *layerMetric {
	for i := range layerMetrics {
		if layerMetrics[i].Name == name {
			return &layerMetrics[i]
		}
	}
	return nil
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 12

// manifestJSON renders the root BENCHMARK.json from the declarations
// above, with exactly the keys the driver's contract allows.
func manifestJSON() []byte {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []e2e     `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command: []string{"bash", "cmd/bench/run.sh"}, Paths: []string{"cmd/bench"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return append(buf, '\n')
}
