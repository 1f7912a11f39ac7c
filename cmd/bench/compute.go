package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// passStats is one pass over a compute workload's full cell list.
type passStats struct {
	wall, cpu time.Duration
	cells     int // simulated cells (runs)
	counts    simCounts
	digest    string
	attempted int
	// parts are the timed parts of the pass by name, in ms: cells of a
	// matrix workload, figures of the grid.
	parts map[string]float64
}

// A computeWorkload simulates in this process. One pass runs its full
// cell list once; rec == nil is an untraced pass through the public
// entry points a user calls, rec != nil the traced pass through the
// staged replica. Failed operations are reported on res.
type computeWorkload interface {
	prepare() error
	pass(rec *recorder, parallelism int, res *result) (passStats, error)
	// layers fills the workload's own per-layer metrics after the traced
	// pass. untraced holds the untraced reference rounds.
	layers(rec *recorder, traced passStats, untraced []passStats, res *result, out map[string]float64) error
}

// extraSetups is how many fresh processes repeat the set-up beside this
// one's own, so setup_s is a median.
const extraSetups = 2

func newResult(ctx *runCtx) *result {
	return &result{Workload: ctx.workload, Seed: ctx.seed, Trace: ctx.trace, Metrics: map[string]value{}}
}

// setUp is what a workload needs before its first timed round: input
// generation and one warm-up pass (arena pool, page faults, lazy init).
func setUp(ctx *runCtx, w computeWorkload, res *result) (passStats, error) {
	if err := w.prepare(); err != nil {
		return passStats{}, err
	}
	return w.pass(nil, ctx.nproc, res)
}

// newCompute builds the named compute workload.
func newCompute(ctx *runCtx) (computeWorkload, error) {
	switch ctx.workload {
	case "stream-big":
		if ctx.quick {
			return newMatrix(ctx, quickStreamCells), nil
		}
		return newMatrix(ctx, streamCells), nil
	case "comm-small":
		if ctx.quick {
			return newMatrix(ctx, quickCommCells), nil
		}
		return newMatrix(ctx, commCells), nil
	case "paper-grid":
		return newGrid(ctx), nil
	}
	return nil, fmt.Errorf("unknown workload %q", ctx.workload)
}

// setupOnlyRun sets the workload up in this fresh process and returns
// the set-up time in seconds.
func setupOnlyRun(ctx *runCtx) (float64, error) {
	if ctx.workload == "simd-serve" {
		return serveSetupOnly(ctx)
	}
	w, err := newCompute(ctx)
	if err != nil {
		return 0, err
	}
	res := newResult(ctx)
	if _, err := setUp(ctx, w, res); err != nil {
		return 0, err
	}
	if res.Failed > 0 {
		return 0, fmt.Errorf("set-up failed: %v", res.Failures)
	}
	return time.Since(procStart).Seconds(), nil
}

// childSetups repeats the set-up in extraSetups fresh processes, one
// after the other, and returns their set-up times.
func childSetups(ctx *runCtx) ([]float64, error) {
	var setups []float64
	for i := 0; i < extraSetups && !ctx.quick; i++ {
		args := append(ctx.childArgs(ctx.workload, 0), "-setup-only")
		out, err := ctx.runChild(os.Stderr, args...)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var v struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(out, &v); err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		setups = append(setups, v.SetupS)
	}
	return setups, nil
}

func runCompute(ctx *runCtx) (*result, error) {
	w, err := newCompute(ctx)
	if err != nil {
		return nil, err
	}
	res := newResult(ctx)
	warm, err := setUp(ctx, w, res)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(procStart).Seconds()}
	res.Attempted += warm.attempted
	res.SimDigest = warm.digest

	cal, err := startCalibrator(ctx)
	if err != nil {
		return nil, err
	}
	defer cal.stop()
	if err := cal.sample(); err != nil {
		return nil, err
	}

	// one more pass: checks a pass against the warm-up's simulated
	// statistics, folds it into the result, and samples the host's speed.
	heapPeak := heapInuseMB()
	one := func(rec *recorder, par int) (passStats, error) {
		ps, err := w.pass(rec, par, res)
		if err != nil {
			return ps, err
		}
		if err := cal.sample(); err != nil {
			return ps, err
		}
		heapPeak = max(heapPeak, heapInuseMB())
		res.Attempted += ps.attempted
		if ps.digest != warm.digest {
			res.fail("sim_digest %s differs from the warm-up pass's %s", ps.digest, warm.digest)
		}
		return ps, nil
	}

	if !ctx.trace {
		var rounds []passStats
		for start := time.Now(); ctx.measuring(len(rounds), start); {
			ps, err := one(nil, ctx.nproc)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, ps)
		}
		rss := peakRSSMB()
		more, err := childSetups(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		var wallMs, nsPerAccess, cpuPerCell []float64
		res.Samples = map[string][]float64{}
		for _, ps := range rounds {
			for part, v := range ps.parts {
				res.Samples[part] = append(res.Samples[part], v)
			}
			wallMs = append(wallMs, ms(ps.wall))
			nsPerAccess = append(nsPerAccess, float64(ps.wall)/float64(ps.counts.Accesses))
			cpuPerCell = append(cpuPerCell, ms(ps.cpu)/float64(ps.cells))
		}
		res.Samples["round"] = wallMs
		res.Samples["calibration_ns"] = cal.nsPerStep()
		reportEndToEnd(res, cal.factor(), setups, wallMs, nsPerAccess, cpuPerCell, value{rss, "MB", 1})
		return res, nil
	}

	// Traced run: traced passes between untraced reference rounds, so a
	// drift of the host does not read as tracing overhead. A workload
	// whose pass is short gets a second traced pass: its cells are small
	// and their single timings scatter by a tenth.
	pattern := []bool{false, true, false}
	switch {
	case ctx.quick:
		pattern = pattern[:2]
	case warm.wall < 3*time.Second:
		pattern = []bool{false, true, false, true, false}
	}
	out := map[string]float64{}
	var untraced, tracedPasses []passStats
	var rec *recorder // of the last traced pass
	for _, withSpans := range pattern {
		if !withSpans {
			ps, err := one(nil, ctx.nproc)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, ps)
			continue
		}
		rec = newRecorder()
		ps, err := one(rec, ctx.nproc)
		if err != nil {
			return nil, err
		}
		tracedPasses = append(tracedPasses, ps)
	}
	traced := tracedPasses[len(tracedPasses)-1]
	out["bench.trace_overhead_frac"] = overheadFrac(tracedPasses, untraced)
	fillCounts(out, traced.counts)

	if err := w.layers(rec, traced, untraced, res, out); err != nil {
		return nil, err
	}
	out["runtime.heap_peak_mb"] = heapPeak
	out["bench.host_factor"] = cal.factor()
	if err := finishTraced(ctx, rec, res, out); err != nil {
		return nil, err
	}
	return res, nil
}

// measuring reports whether a -trace 0 run that has done `done` rounds
// since start goes on to another: -rounds of them, or else at least
// three and until -seconds have passed.
func (ctx *runCtx) measuring(done int, start time.Time) bool {
	if ctx.rounds > 0 {
		return done < ctx.rounds
	}
	return done < 3 || time.Since(start).Seconds() < ctx.seconds
}

// reportEndToEnd fills the five end-to-end metrics from the raw
// per-round samples: each timing is the median over rounds, taken to
// nominal host speed by the run's calibration factor.
func reportEndToEnd(res *result, factor float64, setups, wallMs, nsPerAccess, cpuPerCell []float64, rss value) {
	n := len(wallMs)
	res.HostFactor = factor
	res.Metrics["setup_s"] = value{factor * median(setups), "s", len(setups)}
	res.Metrics["round_ms"] = value{factor * median(wallMs), "ms", n}
	res.Metrics["ns_per_access"] = value{factor * median(nsPerAccess), "ns", n}
	res.Metrics["cpu_ms_per_cell"] = value{factor * median(cpuPerCell), "ms", n}
	res.Metrics["peak_rss_mb"] = rss
	res.Correct = res.Failed == 0
}

// finishTraced ends a -trace 1 run: the probes, the runtime's counters,
// the Chrome trace, and every declared per-layer metric on the result.
func finishTraced(ctx *runCtx, rec *recorder, res *result, out map[string]float64) error {
	out["bench.span_coverage_min"] = spanCoverageMin(rec.snapshot())
	if err := runProbes(ctx, out); err != nil {
		return err
	}
	runtimeLayer(out)
	if err := writeTrace(ctx, rec); err != nil {
		return err
	}
	finishLayers(res, out)
	return nil
}

// overheadFrac is what the traced passes cost beside the untraced ones:
// the median over the pass's parts (cells, figures) of median traced
// wall over median untraced wall, minus one. Taking the median part by
// part keeps a burst of host noise in one part out of the figure.
func overheadFrac(traced, untraced []passStats) float64 {
	partMedian := func(passes []passStats, part string) float64 {
		var vs []float64
		for _, ps := range passes {
			vs = append(vs, ps.parts[part])
		}
		return median(vs)
	}
	var ratios []float64
	for part := range traced[0].parts {
		if ref := partMedian(untraced, part); ref > 0 {
			ratios = append(ratios, partMedian(traced, part)/ref)
		}
	}
	return median(ratios) - 1
}

// hostScaling is the wall of one pass confined to one host core over the
// median wall on all of them: how much of the host the workload uses.
func hostScaling(w computeWorkload, res *result, par int, untraced []passStats) (float64, error) {
	prev := runtime.GOMAXPROCS(1)
	ps, err := w.pass(nil, par, res)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return 0, err
	}
	res.Attempted += ps.attempted
	var refMs []float64
	for _, u := range untraced {
		refMs = append(refMs, ms(u.wall))
	}
	return ms(ps.wall) / median(refMs), nil
}

func fillCounts(out map[string]float64, c simCounts) {
	out["machine.accesses"] = float64(c.Accesses)
	out["machine.cache_misses"] = float64(c.Misses)
	out["machine.tlb_misses"] = float64(c.TLBMisses)
	out["machine.writebacks"] = float64(c.Writebacks)
	out["machine.protocol_tx"] = float64(c.ProtocolTx)
	out["machine.messages"] = float64(c.Messages)
	out["machine.remote_bytes"] = float64(c.RemoteBytes)
	out["machine.sim_ms"] = c.SimNs / 1e6
	if c.Accesses > 0 {
		out["cache.miss_rate"] = float64(c.Misses) / float64(c.Accesses)
		out["cache.tlb_miss_rate"] = float64(c.TLBMisses) / float64(c.Accesses)
	}
}

// spanCoverageMin is the smallest share of a root span (a cell, a round,
// a session) that its named child spans cover.
func spanCoverageMin(spans []span) float64 {
	self := selfTimes(spans)
	lowest := 1.0
	for _, s := range spans {
		if s.Parent < 0 && s.dur() > 0 {
			lowest = min(lowest, 1-float64(self[s.ID])/float64(s.dur()))
		}
	}
	return lowest
}

// finishLayers turns the collected layer values into the result: every
// declared per-layer metric is present, 0 where this workload does not
// exercise it.
func finishLayers(res *result, out map[string]float64) {
	for _, m := range layerMetrics {
		res.Metrics[m.Name] = value{Value: out[m.Name], Unit: m.Unit}
	}
	for name := range out {
		if layerByName(name) == nil {
			res.fail("bench bug: undeclared layer metric %s", name)
		}
	}
	res.Correct = res.Failed == 0
}

func writeTrace(ctx *runCtx, rec *recorder) error {
	if err := os.MkdirAll(ctx.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(ctx.traceDir, fmt.Sprintf("trace-%s.json", ctx.workload))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, "bench "+ctx.workload, rec.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(ctx.log, "wrote %s (chrome://tracing or ui.perfetto.dev)\n", path)
	return nil
}
