package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/keys"
)

// grid is the paper-grid workload: each pass builds a fresh harness and
// regenerates every table and figure `paperfigs -exp all` prints, plus
// figskew, rendered to text.
type grid struct {
	ctx *runCtx
	// cells are the experiments one pass runs, as the harness's Progress
	// callback reported them during the first pass; counts are their
	// simulated statistics, summed by the census.
	cells   []repro.Experiment
	counted bool
	counts  simCounts
}

func newGrid(ctx *runCtx) *grid { return &grid{ctx: ctx} }

func (g *grid) prepare() error { return nil }

func (g *grid) options(par int) repro.Options {
	o := repro.Options{
		Sizes:      []repro.SizeClass{repro.SizeClasses[0]},
		Procs:      []int{16, 64},
		RadixSweep: []int{7, 8}, TableRadixes: []int{8, 11},
		Seed: g.ctx.seed, Parallelism: par,
	}
	if g.ctx.quick {
		o.Sizes = []repro.SizeClass{{Label: "64K", PaperN: 1 << 16, ScaledN: 1 << 12}}
		o.Procs = []int{8}
		o.TableRadixes = []int{8}
	}
	return o
}

// figure regenerates one table or figure; render turns it into the text
// paperfigs prints.
type figure struct {
	name string
	run  func(h *repro.Harness) (render func() []string, err error)
}

func speedup(fn func(*repro.Harness) (*repro.SpeedupFigure, error)) func(*repro.Harness) (func() []string, error) {
	return func(h *repro.Harness) (func() []string, error) {
		f, err := fn(h)
		if err != nil {
			return nil, err
		}
		return func() []string { return []string{f.Table().String()} }, nil
	}
}

func breakdown(fn func(*repro.Harness) (*repro.BreakdownFigure, error)) func(*repro.Harness) (func() []string, error) {
	return func(h *repro.Harness) (func() []string, error) {
		f, err := fn(h)
		if err != nil {
			return nil, err
		}
		return func() []string { return []string{f.Chart()} }, nil
	}
}

func relative(fn func(*repro.Harness) (*repro.RelativeFigure, error)) func(*repro.Harness) (func() []string, error) {
	return func(h *repro.Harness) (func() []string, error) {
		f, err := fn(h)
		if err != nil {
			return nil, err
		}
		return func() []string { return []string{f.Table().String()} }, nil
	}
}

// figures lists the experiments in gridFigures order.
var figures = []figure{
	{"table1", func(h *repro.Harness) (func() []string, error) {
		t, _, err := h.Table1()
		if err != nil {
			return nil, err
		}
		return func() []string { return []string{t.String()} }, nil
	}},
	{"fig1", speedup((*repro.Harness).Figure1)},
	{"fig2", speedup((*repro.Harness).Figure2)},
	{"fig3", speedup((*repro.Harness).Figure3)},
	{"fig7", speedup((*repro.Harness).Figure7)},
	{"figpsrs", speedup((*repro.Harness).FigurePSRS)},
	{"fig4", breakdown((*repro.Harness).Figure4)},
	{"fig8", breakdown((*repro.Harness).Figure8)},
	{"fig5", relative((*repro.Harness).Figure5)},
	{"fig6", relative((*repro.Harness).Figure6)},
	{"fig9", relative((*repro.Harness).Figure9)},
	{"fig10", relative((*repro.Harness).Figure10)},
	{"table23", func(h *repro.Harness) (func() []string, error) {
		bt, err := h.Tables23()
		if err != nil {
			return nil, err
		}
		return func() []string { return []string{bt.Table2().String(), bt.Table3().String()} }, nil
	}},
	{"figskew", relative((*repro.Harness).FigureSkew)},
}

func (g *grid) pass(rec *recorder, par int, res *result) (passStats, error) {
	if g.cells != nil && !g.counted {
		if err := g.census(); err != nil {
			return passStats{}, err
		}
	}
	opts := g.options(par)
	var seen []repro.Experiment
	if g.cells == nil {
		// First pass: learn the cell list. Progress calls are serialized
		// by the harness; a cell costs one append.
		opts.Progress = func(_ string, args ...any) {
			if e, ok := progressCell(args, g.ctx.seed); ok {
				seen = append(seen, e)
			}
		}
	}
	ps := passStats{parts: map[string]float64{}}
	text := newDigest()
	c0, t0 := cpuTime(), time.Now()
	round := rec.begin(-1, "round", "round")
	h := repro.NewHarness(opts)
	for _, f := range figures {
		if g.ctx.quick && (f.name == "fig4" || f.name == "fig8") {
			continue // they run their 64M-class cells at any Options.Sizes
		}
		f0 := time.Now()
		sp := rec.begin(round, "figure", f.name)
		render, err := f.run(h)
		if err != nil {
			rec.end(sp)
			res.fail("%s: %v", f.name, err)
			continue
		}
		rsp := rec.begin(sp, "render", f.name)
		for _, block := range render() {
			text.Write([]byte(block))
			text.Write([]byte{'\n'})
		}
		rec.end(rsp)
		rec.end(sp)
		ps.parts[f.name] = ms(time.Since(f0))
	}
	rec.end(round)
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-c0
	st := h.Stats()
	ps.cells, ps.attempted = st.Runs, st.Runs
	ps.digest = digestString(text)
	if g.cells == nil {
		g.cells = seen
		if len(seen) != st.Runs {
			return ps, fmt.Errorf("paper-grid: Progress reported %d cells, the harness counted %d runs", len(seen), st.Runs)
		}
	}
	ps.counts = g.counts
	if g.counted && math.Abs(st.SimNs-g.counts.SimNs) > 1e-9*st.SimNs {
		res.fail("paper-grid: harness simulated %.0f ns, the census of its cells %.0f ns", st.SimNs, g.counts.SimNs)
	}
	return ps, nil
}

// progressCell rebuilds the experiment behind one Progress call of the
// harness: a run line carries (algorithm, model, n, procs, radix, dist,
// time), a baseline line (n, dist, time). The figure drivers set no
// other Experiment field, and the census checks the rebuilt cells
// against the harness's simulated-time total.
func progressCell(args []any, seed uint64) (repro.Experiment, bool) {
	switch len(args) {
	case 7:
		alg, ok1 := args[0].(repro.Algorithm)
		model, ok2 := args[1].(repro.Model)
		n, ok3 := args[2].(int)
		procs, ok4 := args[3].(int)
		radix, ok5 := args[4].(int)
		dist, ok6 := args[5].(keys.Dist)
		if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 {
			return repro.Experiment{Algorithm: alg, Model: model, N: n, Procs: procs, Radix: radix, Dist: dist, Seed: seed}, true
		}
	case 3:
		n, ok1 := args[0].(int)
		dist, ok2 := args[1].(keys.Dist)
		if ok1 && ok2 {
			return repro.Experiment{Algorithm: repro.Radix, Model: repro.Seq, N: n, Procs: 1, Radix: 8, Dist: dist, Seed: seed}, true
		}
	}
	return repro.Experiment{}, false
}

// census runs every distinct cell of the pass once more, directly, to
// count the simulated accesses the harness does not expose. It is
// bookkeeping of the bench, outside both set-up and the timed rounds.
func (g *grid) census() error {
	index := map[repro.Experiment]int{}
	var distinct []repro.Experiment
	for _, e := range g.cells {
		if _, ok := index[e]; !ok {
			index[e] = len(distinct)
			distinct = append(distinct, e)
		}
	}
	counts := make([]simCounts, len(distinct))
	errs := make([]error, len(distinct))
	for _, pe := range repro.ForEachIndex(g.ctx.nproc, len(distinct), func(i int) {
		out, err := repro.Run(distinct[i])
		if err != nil {
			errs[i] = err
			return
		}
		counts[i] = countsOf(out.Result)
	}) {
		errs[pe.Index] = pe
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("paper-grid census: %w", err)
		}
	}
	for _, e := range g.cells {
		g.counts.add(counts[index[e]])
	}
	g.counted = true
	return nil
}

func (g *grid) layers(rec *recorder, traced passStats, untraced []passStats, res *result, out map[string]float64) error {
	out["report.render_ms"] = sumByName(rec.snapshot(), "render")
	out["repro.runs"] = float64(traced.cells)
	var refMs []float64
	perFig := map[string][]float64{}
	for _, ps := range append(untraced, traced) {
		for name, v := range ps.parts {
			perFig[name] = append(perFig[name], v)
		}
	}
	for _, ps := range untraced {
		refMs = append(refMs, ms(ps.wall))
	}
	for name, vs := range perFig {
		out["repro.figure_ms."+name] = median(vs)
	}
	// One pass with a single harness worker: the text must not change,
	// and the ratio is what the grid scheduler buys on this host.
	serial, err := g.pass(nil, 1, res)
	if err != nil {
		return err
	}
	res.Attempted += serial.attempted
	if serial.digest != traced.digest {
		res.fail("paper-grid: text at Parallelism=1 differs from Parallelism=%d", g.ctx.nproc)
	}
	out["repro.grid_speedup_j"] = ms(serial.wall) / median(refMs)
	return nil
}
