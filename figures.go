package repro

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Options configures a Harness run. Zero values select the paper's full
// grid on the scaled machine.
type Options struct {
	// Procs are the processor counts (default 16, 32, 64).
	Procs []int
	// Sizes are the data-set classes (default all five).
	Sizes []SizeClass
	// Seed perturbs key generation.
	Seed uint64
	// RadixSweep are the radix sizes for Figures 6 and 10 (default 6..12).
	RadixSweep []int
	// TableRadixes are the radix candidates swept for Tables 2 and 3
	// (default 8, 11, 12 — the paper's winners; the full 6..14 sweep is
	// available but costly).
	TableRadixes []int
	// Parallelism bounds how many experiment cells the harness runs
	// concurrently (default runtime.GOMAXPROCS(0)). Results are always
	// gathered in deterministic cell order and the simulator's virtual
	// time is independent of host scheduling, so tables and figures are
	// byte-identical at any setting; only wall-clock changes.
	Parallelism int
	// Paranoid runs every experiment cell (baselines included) with the
	// paranoid-mode invariant checks enabled; any violation fails the
	// run with a structured error. Outputs are unchanged — tables and
	// figures stay byte-identical — but host time grows severalfold.
	Paranoid bool
	// ParanoidSampleEvery spot-samples the paranoid checks (see
	// Experiment.ParanoidSampleEvery); N > 1 implies Paranoid.
	ParanoidSampleEvery int
	// Trace records a virtual-time event trace for every experiment cell
	// (baselines excluded — they are cached and shared across figures).
	// Traces accumulate on the harness in deterministic submission order
	// regardless of Parallelism; fetch them with Traces.
	Trace bool
	// Progress, when set, receives one line per completed run. Calls are
	// serialized (never concurrent), but under Parallelism > 1 the order
	// of lines follows completion order, not submission order.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if len(o.Procs) == 0 {
		o.Procs = []int{16, 32, 64}
	}
	if len(o.Sizes) == 0 {
		o.Sizes = SizeClasses
	}
	if len(o.RadixSweep) == 0 {
		o.RadixSweep = []int{6, 7, 8, 9, 10, 11, 12}
	}
	if len(o.TableRadixes) == 0 {
		o.TableRadixes = []int{8, 11, 12}
	}
	if o.Parallelism < 1 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// Harness regenerates the paper's tables and figures. It caches the
// sequential baselines speedups are measured against.
//
// A Harness is safe for concurrent use: its tables and figures run their
// cells on a worker pool of opts.Parallelism goroutines (see RunCells),
// the baseline cache is singleflight-guarded, and the Progress callback
// is serialized. Everything else an experiment touches (Machine, caches,
// key slices) is built per Run and shared with nothing.
type Harness struct {
	opts Options

	// mu guards baseline, the sequential cells run so far, keyed by the
	// whole experiment. Each entry is a singleflight slot, a
	// sync.OnceValues of the run: the map lookup is cheap under mu, and
	// one goroutine runs the experiment while the others wait on the
	// same entry without duplicating the run.
	mu       sync.Mutex
	baseline map[Experiment]*func() (Cell, error)

	// progMu serializes the user's Progress callback.
	progMu sync.Mutex

	// statMu guards stats.
	statMu sync.Mutex
	stats  HarnessStats

	// traceMu guards traces, the event traces of the figure cells run
	// with opts.Trace set. RunCells appends each grid's traces in cell
	// order after the grid completes, so the sequence is deterministic at
	// any Parallelism.
	traceMu sync.Mutex
	traces  []*trace.Trace

	// simulate executes one experiment: Run, except in tests, which stub
	// it to inject failures and panics into cells and singleflight slots.
	simulate func(Experiment) (*Outcome, error)
}

// HarnessStats counts the work a harness has executed so far. The JSON
// field names are part of cmd/simd's /statsz response.
type HarnessStats struct {
	// Runs is the number of completed experiment runs, including cached
	// sequential baselines (each baseline counts once, however many
	// figures consume it).
	Runs int `json:"runs"`
	// SimNs is the total simulated virtual time across those runs.
	SimNs float64 `json:"sim_ns"`
}

// Stats returns a snapshot of the harness's work counters. Diffing two
// snapshots around a figure yields that figure's run count and
// simulated time (cmd/bench's paper-grid workload does exactly this).
func (h *Harness) Stats() HarnessStats {
	h.statMu.Lock()
	defer h.statMu.Unlock()
	return h.stats
}

// NewHarness builds a harness.
func NewHarness(opts Options) *Harness {
	return &Harness{opts: opts.withDefaults(), baseline: make(map[Experiment]*func() (Cell, error)), simulate: Run}
}

// RunExperiment executes one fully-specified experiment exactly as given
// — its own Seed, FullSize, Trace and Paranoid fields, not the harness
// options — counting it in the harness's stats and progress stream. It
// is the entry point for callers (cmd/simd) whose requests carry those
// settings per cell, and the one place the harness itself simulates:
// every figure cell ends up here. A traced run's trace rides on the
// Outcome only; the harness keeps none of it.
func (h *Harness) RunExperiment(e Experiment) (*Outcome, error) {
	out, err := h.simulate(e)
	if err != nil {
		return nil, err
	}
	h.statMu.Lock()
	h.stats.Runs++
	h.stats.SimNs += out.TimeNs
	h.statMu.Unlock()
	format, args := e.progressLine(out.TimeNs)
	h.progMu.Lock()
	defer h.progMu.Unlock()
	h.opts.Progress(format, args...)
	return out, nil
}

// sequential returns one sequential cell, running it on first use. It is
// singleflight-deduplicated: when several cells need the same baseline
// at once, exactly one goroutine runs the experiment and the rest wait
// for it; they all get the one Cell, breakdown and all, to read.
//
// Only successes are cached. A failed or panicking run's entry is
// dropped before sequential returns or unwinds, so the next caller
// retries instead of being served the stale error forever
// (internal/resultcache applies the same errors-are-never-cached rule to
// its content-addressed store). Callers already waiting on the entry
// share its outcome: the error, or the same panic.
func (h *Harness) sequential(e Experiment) (Cell, error) {
	h.mu.Lock()
	slot := h.baseline[e]
	if slot == nil {
		run := sync.OnceValues(func() (Cell, error) { return h.cell(e) })
		slot = &run
		h.baseline[e] = slot
	}
	h.mu.Unlock()
	failed := true
	// The map may already hold a fresh entry from a later caller, so only
	// drop our own.
	defer func() {
		if failed {
			h.mu.Lock()
			if h.baseline[e] == slot {
				delete(h.baseline, e)
			}
			h.mu.Unlock()
		}
	}()
	c, err := (*slot)()
	failed = err != nil
	return c, err
}

// program is the experiment template of one figure series: a sorting
// program on procs processors at the paper's defaults (radix 8, Gauss
// keys), for runGrid to complete per size class.
func program(alg Algorithm, model Model, procs int) Experiment {
	return Experiment{Algorithm: alg, Model: model, Procs: procs, Radix: 8, Dist: keys.Gauss}
}

// experiment completes a figure's template into the cell the harness
// runs: the size class's key count for this machine scale plus the
// harness-wide seed and checking. It is the only place Options reach an
// Experiment.
func (h *Harness) experiment(s SizeClass, e Experiment) Experiment {
	e.N, e.Seed = s.ScaledN, h.opts.Seed
	e.Paranoid, e.ParanoidSampleEvery = h.opts.Paranoid, h.opts.ParanoidSampleEvery
	// A baseline is computed once and shared by every figure that divides
	// by it, so whose trace list it would land in depends on what ran
	// before: sequential cells are never traced.
	e.Trace = h.opts.Trace && e.Model != Seq
	return e
}

// Traces returns a copy of the event traces the tables and figures
// collected so far (opts.Trace must be set), in the deterministic order
// their cells were submitted.
func (h *Harness) Traces() []*trace.Trace {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	out := make([]*trace.Trace, len(h.traces))
	copy(out, h.traces)
	return out
}

// maxProcs is the largest processor count of the grid, where the
// single-configuration figures (4–6, 8–10, figskew) run.
func (h *Harness) maxProcs() int { return slices.Max(h.opts.Procs) }

// sizeLabels returns the size classes' labels.
func sizeLabels(sizes []SizeClass) []string {
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = s.Label
	}
	return labels
}

// gridKey labels one (size, procs) cell.
func gridKey(size string, procs int) string { return fmt.Sprintf("%s@%dP", size, procs) }

// SpeedupFigure holds one speedup-vs-configuration figure.
type SpeedupFigure struct {
	Title    string
	Variants []string
	Procs    []int
	Sizes    []string
	// Speedup[variant][gridKey(size, procs)].
	Speedup map[string]map[string]float64
}

// Get returns one cell.
func (f *SpeedupFigure) Get(variant, size string, procs int) float64 {
	return f.Speedup[variant][gridKey(size, procs)]
}

// Table renders the figure's series as rows (one per size × procs).
func (f *SpeedupFigure) Table() *report.Table {
	t := &report.Table{Title: f.Title, Header: []string{"size", "procs"}}
	t.Header = append(t.Header, f.Variants...)
	for _, s := range f.Sizes {
		for _, p := range f.Procs {
			row := []string{s, fmt.Sprintf("%d", p)}
			for _, v := range f.Variants {
				row = append(row, report.F(f.Get(v, s, p)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// series is one line of a speedup figure: a label and the template of
// the program it runs. The algorithm may differ per series, which is what
// lets FigurePSRS put PSRS and sample sort on one grid; the template's
// Topo reshapes the series' interconnect, which is what lets FigureTopo
// sweep the same sorts across every network kind.
type series struct {
	label string
	exp   Experiment
}

func line(label string, alg Algorithm, model Model) series {
	return series{label, program(alg, model, 0)}
}

// speedup sweeps the series over the sizes × processor-counts
// grid, all against the shared sequential radix baseline.
func (h *Harness) speedup(title string, lines ...series) (*SpeedupFigure, error) {
	var rows []Experiment
	for _, p := range h.opts.Procs {
		for _, l := range lines {
			l.exp.Procs = p
			rows = append(rows, l.exp)
		}
	}
	g, err := h.runGrid(h.opts.Sizes, true, rows)
	if err != nil {
		return nil, err
	}
	f := &SpeedupFigure{
		Title:   title,
		Procs:   h.opts.Procs,
		Sizes:   sizeLabels(h.opts.Sizes),
		Speedup: make(map[string]map[string]float64),
	}
	for li, l := range lines {
		f.Variants = append(f.Variants, l.label)
		f.Speedup[l.label] = make(map[string]float64)
		for si, s := range f.Sizes {
			for pi, p := range f.Procs {
				f.Speedup[l.label][gridKey(s, p)] = g.base(si) / g.at(si, pi*len(lines)+li).TimeNs
			}
		}
	}
	return f, nil
}

// Table1 reproduces the sequential radix sort times for the Gauss
// distribution (paper Table 1).
func (h *Harness) Table1() (*report.Table, []float64, error) {
	g, err := h.runGrid(h.opts.Sizes, true, nil)
	if err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title:  "Table 1: sequential radix sort time, Gauss keys (simulated)",
		Header: []string{"size", "keys", "time"},
	}
	var times []float64
	for i, s := range h.opts.Sizes {
		times = append(times, g.base(i))
		t.AddRow(s.Label, fmt.Sprintf("%d", g.exps[i].N), report.Ms(g.base(i)))
	}
	return t, times, nil
}

// Figure1 compares radix sort under the two MPI implementations
// (SGI-style staged vs the authors' direct "NEW").
func (h *Harness) Figure1() (*SpeedupFigure, error) {
	return h.speedup("Figure 1: radix sort speedups, SGI vs NEW MPI",
		line("SGI", Radix, MPISGI), line("NEW", Radix, MPI))
}

// Figure2 is Figure1 for sample sort.
func (h *Harness) Figure2() (*SpeedupFigure, error) {
	return h.speedup("Figure 2: sample sort speedups, SGI vs NEW MPI",
		line("SGI", Sample, MPISGI), line("NEW", Sample, MPI))
}

// Figure3 compares radix sort across programming models, including the
// improved CC-SAS-NEW.
func (h *Harness) Figure3() (*SpeedupFigure, error) {
	return h.speedup("Figure 3: radix sort speedups across models",
		line("SHMEM", Radix, SHMEM), line("CC-SAS", Radix, CCSAS),
		line("MPI", Radix, MPI), line("CC-SAS-NEW", Radix, CCSASNew))
}

// Figure7 compares sample sort across programming models.
func (h *Harness) Figure7() (*SpeedupFigure, error) {
	return h.speedup("Figure 7: sample sort speedups across models",
		line("SHMEM", Sample, SHMEM), line("CC-SAS", Sample, CCSAS), line("MPI", Sample, MPI))
}

// FigurePSRS puts PSRS and the splitter-based sample sort on one
// speedup grid across the three programming models — a beyond-paper
// section (DESIGN.md §11): the two algorithms share every phase except
// pivot selection (gather/broadcast through the root vs group splitter
// election) and the finish (multiway merge vs second local radix sort),
// so the grid isolates exactly those two communication shapes.
func (h *Harness) FigurePSRS() (*SpeedupFigure, error) {
	return h.speedup("Figure P: PSRS vs sample sort speedups across models",
		line("PSRS-SHMEM", Psrs, SHMEM), line("PSRS-CC-SAS", Psrs, CCSAS),
		line("PSRS-MPI", Psrs, MPI), line("SMPL-SHMEM", Sample, SHMEM),
		line("SMPL-CC-SAS", Sample, CCSAS), line("SMPL-MPI", Sample, MPI))
}

// FigureTopoKinds is the fixed interconnect order of FigureTopo: the
// paper's hypercube first, then the beyond-paper network shapes.
var FigureTopoKinds = []string{
	topology.KindHypercube,
	topology.KindFatTree,
	topology.KindTorus,
	topology.KindDragonfly,
	topology.KindNUMA2,
}

// FigureTopo sweeps the three sorts across the three programming models
// on every interconnect kind — one speedup figure per network, same
// grid and sequential baseline everywhere (a 1-processor machine is a
// single node under every kind, so the baseline is topology-invariant).
// This is the beyond-paper scale study (DESIGN.md §12): does the CC-SAS
// vs MPI ranking survive when the Origin2000 hypercube is replaced by a
// modern fat-tree, torus, dragonfly, or two-tier chiplet NUMA?
func (h *Harness) FigureTopo() ([]*SpeedupFigure, error) {
	algTag := map[Algorithm]string{Radix: "RDX", Sample: "SMPL", Psrs: "PSRS"}
	modelTag := map[Model]string{SHMEM: "SHMEM", CCSAS: "CC-SAS", MPI: "MPI"}
	var figs []*SpeedupFigure
	for _, kind := range FigureTopoKinds {
		var lines []series
		for _, a := range []Algorithm{Radix, Sample, Psrs} {
			for _, m := range []Model{SHMEM, CCSAS, MPI} {
				l := line(algTag[a]+"-"+modelTag[m], a, m)
				l.exp.Topo = kind
				lines = append(lines, l)
			}
		}
		f, err := h.speedup(
			fmt.Sprintf("Figure T (%s): radix/sample/PSRS speedups across models", kind), lines...)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// BreakdownFigure holds per-processor time decompositions for several
// program variants (paper Figures 4 and 8).
type BreakdownFigure struct {
	Title  string
	Panels []BreakdownPanel
}

// BreakdownPanel is one variant's per-processor decomposition.
type BreakdownPanel struct {
	Name    string
	PerProc []machine.Breakdown
}

// Mean returns the panel's average breakdown across processors.
func (p *BreakdownPanel) Mean() machine.Breakdown {
	var sum machine.Breakdown
	for _, b := range p.PerProc {
		sum.Add(b)
	}
	n := float64(len(p.PerProc))
	return machine.Breakdown{
		Busy: sum.Busy / n, LMem: sum.LMem / n, RMem: sum.RMem / n, Sync: sum.Sync / n,
	}
}

// Chart renders the panels as stacked per-category charts of the mean
// breakdown, in microseconds.
func (f *BreakdownFigure) Chart() string {
	sb := &report.StackedBreakdown{
		Title:      f.Title,
		Categories: []string{"BUSY", "LMEM", "RMEM", "SYNC"},
	}
	for _, p := range f.Panels {
		m := p.Mean()
		sb.Labels = append(sb.Labels, p.Name)
		sb.Values = append(sb.Values, []float64{m.Busy / 1e3, m.LMem / 1e3, m.RMem / 1e3, m.Sync / 1e3})
	}
	return sb.String()
}

// breakdown runs the given models at the paper's breakdown
// configuration: the 64M-size class on the largest processor count.
func (h *Harness) breakdown(title string, alg Algorithm, models ...Model) (*BreakdownFigure, error) {
	var rows []Experiment
	for _, mo := range models {
		rows = append(rows, program(alg, mo, h.maxProcs()))
	}
	g, err := h.runGrid(SizeClasses[3:4], false, rows)
	if err != nil {
		return nil, err
	}
	f := &BreakdownFigure{Title: title}
	for i, mo := range models {
		f.Panels = append(f.Panels, BreakdownPanel{Name: string(mo), PerProc: g.at(0, i).PerProc})
	}
	return f, nil
}

// Figure4 reproduces the radix sort per-processor time breakdowns.
func (h *Harness) Figure4() (*BreakdownFigure, error) {
	return h.breakdown("Figure 4: radix sort time breakdown (64M class)",
		Radix, CCSAS, CCSASNew, MPI, SHMEM)
}

// Figure8 reproduces the sample sort per-processor time breakdowns.
func (h *Harness) Figure8() (*BreakdownFigure, error) {
	return h.breakdown("Figure 8: sample sort time breakdown (64M class)",
		Sample, CCSAS, MPI, SHMEM)
}

// RelativeFigure holds execution times relative to a reference variant
// (paper Figures 5, 6, 9 and 10).
type RelativeFigure struct {
	Title     string
	Reference string
	Variants  []string
	Sizes     []string
	// Relative[variant][size] = time(variant)/time(reference).
	Relative map[string]map[string]float64
}

// Get returns one cell.
func (f *RelativeFigure) Get(variant, size string) float64 {
	return f.Relative[variant][size]
}

// Table renders the figure.
func (f *RelativeFigure) Table() *report.Table {
	t := &report.Table{Title: f.Title, Header: append([]string{"variant"}, f.Sizes...)}
	for _, v := range f.Variants {
		row := []string{v}
		for _, s := range f.Sizes {
			row = append(row, report.F(f.Get(v, s)))
		}
		t.AddRow(row...)
	}
	return t
}

// relative divides every column of a variants × columns block of times
// by the column's entry for variant ref; timeNs(col, variant) reads one
// cell out of the executed grid.
func relative(title, reference string, variants, cols []string, ref int, timeNs func(col, variant int) float64) *RelativeFigure {
	f := &RelativeFigure{
		Title: title, Reference: reference, Variants: variants, Sizes: cols,
		Relative: make(map[string]map[string]float64),
	}
	for vi, v := range variants {
		f.Relative[v] = make(map[string]float64)
		for ci, c := range cols {
			f.Relative[v][c] = timeNs(ci, vi) / timeNs(ci, ref)
		}
	}
	return f
}

// sweep runs the rows — one program under every variant of one setting —
// at each size class and reports times relative to variant ref.
func (h *Harness) sweep(title, reference string, variants []string, ref int, rows []Experiment) (*RelativeFigure, error) {
	g, err := h.runGrid(h.opts.Sizes, false, rows)
	if err != nil {
		return nil, err
	}
	return relative(title, reference, variants, sizeLabels(h.opts.Sizes), ref,
		func(col, variant int) float64 { return g.at(col, variant).TimeNs }), nil
}

// distNames names the distributions and finds Gauss, the reference,
// among them.
func distNames(dists []keys.Dist) (names []string, gauss int) {
	for i, d := range dists {
		names = append(names, d.String())
		if d == keys.Gauss {
			gauss = i
		}
	}
	return names, gauss
}

// byDist sweeps the paper's key distributions at the largest processor
// count, relative to Gauss.
func (h *Harness) byDist(title string, alg Algorithm, model Model) (*RelativeFigure, error) {
	e := program(alg, model, h.maxProcs())
	var rows []Experiment
	for _, d := range keys.AllDists {
		e.Dist = d
		rows = append(rows, e)
	}
	names, gauss := distNames(keys.AllDists)
	return h.sweep(title, keys.Gauss.String(), names, gauss, rows)
}

// byRadix sweeps Options.RadixSweep at the largest processor count,
// relative to radix 8 — or to the first swept radix when 8 is not in the
// sweep — and names that reference radix at the end of the title.
func (h *Harness) byRadix(title string, alg Algorithm, model Model) (*RelativeFigure, error) {
	e := program(alg, model, h.maxProcs())
	var rows []Experiment
	var names []string
	ref, refRadix := 0, 0
	for i, r := range h.opts.RadixSweep {
		e.Radix = r
		rows, names = append(rows, e), append(names, fmt.Sprintf("r=%d", r))
		if r == 8 || i == 0 {
			ref, refRadix = i, r
		}
	}
	reference := fmt.Sprintf("radix %d", refRadix)
	return h.sweep(title+", relative to "+reference, reference, names, ref, rows)
}

// Figure5 reproduces the radix sort key-distribution study (SHMEM, max
// processor count).
func (h *Harness) Figure5() (*RelativeFigure, error) {
	return h.byDist("Figure 5: radix sort time by key distribution (SHMEM), relative to Gauss", Radix, SHMEM)
}

// Figure9 reproduces the sample sort key-distribution study (CC-SAS).
func (h *Harness) Figure9() (*RelativeFigure, error) {
	return h.byDist("Figure 9: sample sort time by key distribution (CC-SAS), relative to Gauss", Sample, CCSAS)
}

// Figure6 reproduces the radix-size study for radix sort (SHMEM).
func (h *Harness) Figure6() (*RelativeFigure, error) {
	return h.byRadix("Figure 6: radix sort time by radix size (SHMEM)", Radix, SHMEM)
}

// Figure10 reproduces the radix-size study for sample sort (CC-SAS).
func (h *Harness) Figure10() (*RelativeFigure, error) {
	return h.byRadix("Figure 10: sample sort time by radix size (CC-SAS)", Sample, CCSAS)
}

// FigureSkew is the beyond-paper skewed-workload study (DESIGN.md §14,
// paperfigs -exp figskew): Gauss plus the four skew distributions
// (zipf, selfsim, dupheavy, adversarial) across the three algorithms at
// their §4 headline models, largest size and processor count of the
// grid. Each column is one program, normalized by that program's own
// Gauss time, so a cell directly reads "how much does this skew cost
// this algorithm" — the splitter-sensitivity story the paper's eight
// benign distributions cannot show.
func (h *Harness) FigureSkew() (*RelativeFigure, error) {
	size := slices.MaxFunc(h.opts.Sizes, func(a, b SizeClass) int { return cmp.Compare(a.PaperN, b.PaperN) })
	dists := append([]keys.Dist{keys.Gauss}, keys.SkewDists...)
	var cols []string
	var rows []Experiment
	for _, p := range []series{
		line("radix/shmem", Radix, SHMEM), line("sample/ccsas", Sample, CCSAS), line("psrs/ccsas", Psrs, CCSAS),
	} {
		cols = append(cols, p.label)
		p.exp.Procs = h.maxProcs()
		for _, d := range dists {
			p.exp.Dist = d
			rows = append(rows, p.exp)
		}
	}
	g, err := h.runGrid([]SizeClass{size}, false, rows)
	if err != nil {
		return nil, err
	}
	names, gauss := distNames(dists)
	return relative(
		fmt.Sprintf("figskew: skewed workloads at the %s class, %dP, relative to each program's Gauss time",
			size.Label, h.maxProcs()),
		keys.Gauss.String(), names, cols, gauss,
		func(col, variant int) float64 { return g.at(0, col*len(dists)+variant).TimeNs }), nil
}

// BestCell is one Table 2/3 entry: the best time over models and radix
// candidates, and which combination won.
type BestCell struct {
	TimeNs float64
	Model  Model
	Radix  int
}

// BestTables holds Tables 2 and 3: Best[algorithm][size][procs].
type BestTables struct {
	Sizes []string
	Procs []int
	Best  map[Algorithm]map[string]map[int]BestCell
}

// bestAlgorithms are the algorithms of Tables 2 and 3, in column order.
var bestAlgorithms = []Algorithm{Radix, Sample}

// Tables23 sweeps models × radix candidates to find the best combination
// per cell, reproducing Tables 2 and 3 together.
func (h *Harness) Tables23() (*BestTables, error) {
	// The paper's Table 2 picks the best over the three programming
	// models (CC-SAS there means the better of original and NEW).
	models := map[Algorithm][]Model{
		Radix:  {CCSAS, CCSASNew, MPI, SHMEM},
		Sample: {CCSAS, MPI, SHMEM},
	}
	radixes := h.opts.TableRadixes
	var rows []Experiment
	for _, alg := range bestAlgorithms {
		for _, p := range h.opts.Procs {
			for _, mo := range models[alg] {
				for _, r := range radixes {
					e := program(alg, mo, p)
					e.Radix = r
					rows = append(rows, e)
				}
			}
		}
	}
	g, err := h.runGrid(h.opts.Sizes, false, rows)
	if err != nil {
		return nil, err
	}
	bt := &BestTables{
		Sizes: sizeLabels(h.opts.Sizes),
		Procs: h.opts.Procs,
		Best:  make(map[Algorithm]map[string]map[int]BestCell),
	}
	first := 0 // row of the algorithm's first candidate
	for _, alg := range bestAlgorithms {
		bt.Best[alg] = make(map[string]map[int]BestCell)
		candidates := len(models[alg]) * len(radixes)
		for si, s := range bt.Sizes {
			bt.Best[alg][s] = make(map[int]BestCell)
			for pi, p := range bt.Procs {
				// Ties resolve to the earliest candidate in sweep order
				// (model-major, then radix).
				best := BestCell{TimeNs: -1}
				for c := 0; c < candidates; c++ {
					t := g.at(si, first+pi*candidates+c).TimeNs
					if best.TimeNs < 0 || t < best.TimeNs {
						best = BestCell{TimeNs: t, Model: models[alg][c/len(radixes)], Radix: radixes[c%len(radixes)]}
					}
				}
				bt.Best[alg][s][p] = best
			}
		}
		first += len(bt.Procs) * candidates
	}
	return bt, nil
}

// table renders one string per best cell, sizes down and algorithm ×
// processor count across.
func (bt *BestTables) table(title string, render func(BestCell) string) *report.Table {
	t := &report.Table{Title: title, Header: []string{"size"}}
	for _, alg := range bestAlgorithms {
		for _, p := range bt.Procs {
			t.Header = append(t.Header, fmt.Sprintf("%s %dP", alg, p))
		}
	}
	for _, s := range bt.Sizes {
		row := []string{s}
		for _, alg := range bestAlgorithms {
			for _, p := range bt.Procs {
				row = append(row, render(bt.Best[alg][s][p]))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Table2 renders the best execution times (paper Table 2).
func (bt *BestTables) Table2() *report.Table {
	return bt.table("Table 2: best execution time (simulated), Gauss keys",
		func(c BestCell) string { return report.Ms(c.TimeNs) })
}

// Table3 renders the winning model and radix per cell (paper Table 3).
func (bt *BestTables) Table3() *report.Table {
	return bt.table("Table 3: best model and radix size per configuration",
		func(c BestCell) string { return fmt.Sprintf("%s %d", c.Model, c.Radix) })
}
