package repro

import (
	"fmt"
	"runtime"
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
	// FullSize runs on unscaled Origin2000 parameters.
	FullSize bool
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
	// (baselines excluded — they are cached and shared across drivers).
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
// A Harness is safe for concurrent use: its figure/table drivers run
// their experiment grids on a worker pool of opts.Parallelism goroutines
// (see runGrid), the baseline cache is singleflight-guarded, and the
// Progress callback is serialized. Everything else an experiment touches
// (Machine, caches, key slices) is built per Run and shared with nothing.
type Harness struct {
	opts Options

	// mu guards baseline. Each entry is a singleflight slot: the map
	// lookup is cheap under mu, the expensive sequential run happens in
	// the entry's once — one goroutine computes it, others wait on the
	// same entry without duplicating the run.
	mu       sync.Mutex
	baseline map[baselineKey]*baselineEntry

	// progMu serializes the user's Progress callback.
	progMu sync.Mutex

	// statMu guards stats.
	statMu sync.Mutex
	stats  HarnessStats

	// traceMu guards traces, the event traces collected when opts.Trace
	// is set. runGrid appends each grid's traces in cell order after the
	// grid completes, so the sequence is deterministic at any
	// Parallelism.
	traceMu sync.Mutex
	traces  []*trace.Trace

	// runBaseline is the function BaselineTime uses to execute the
	// sequential experiment (nil selects Run). Tests stub it to inject
	// failures into the singleflight slots.
	runBaseline func(Experiment) (*Outcome, error)
}

type baselineKey struct {
	n     int
	dist  keys.Dist
	radix int
	seed  uint64
}

// baselineEntry is one singleflight slot of the baseline cache.
type baselineEntry struct {
	once   sync.Once
	timeNs float64
	err    error
}

// HarnessStats counts the work a harness has executed so far. The JSON
// field names are part of cmd/simd's /statsz response.
type HarnessStats struct {
	// Runs is the number of completed experiment runs, including cached
	// sequential baselines (each baseline counts once, however many
	// drivers consume it).
	Runs int `json:"runs"`
	// SimNs is the total simulated virtual time across those runs.
	SimNs float64 `json:"sim_ns"`
}

// Stats returns a snapshot of the harness's work counters. Diffing two
// snapshots around a figure driver yields that figure's run count and
// simulated time (cmd/bench's paper-grid workload does exactly this).
func (h *Harness) Stats() HarnessStats {
	h.statMu.Lock()
	defer h.statMu.Unlock()
	return h.stats
}

// note records one completed run in the stats counters.
func (h *Harness) note(simNs float64) {
	h.statMu.Lock()
	h.stats.Runs++
	h.stats.SimNs += simNs
	h.statMu.Unlock()
}

// progress emits one serialized Progress line.
func (h *Harness) progress(format string, args ...any) {
	h.progMu.Lock()
	defer h.progMu.Unlock()
	h.opts.Progress(format, args...)
}

// NewHarness builds a harness.
func NewHarness(opts Options) *Harness {
	return &Harness{opts: opts.withDefaults(), baseline: make(map[baselineKey]*baselineEntry)}
}

// sizeN returns the key count used for a size class.
func (h *Harness) sizeN(s SizeClass) int {
	if h.opts.FullSize {
		return s.PaperN
	}
	return s.ScaledN
}

// BaselineTime returns (computing and caching on first use) the
// sequential radix sort time for n keys of the given distribution — the
// paper measures every speedup against this same baseline (radix 8).
//
// BaselineTime is safe for concurrent use and singleflight-deduplicated:
// when several grid cells need the same baseline at once, exactly one
// goroutine runs the sequential experiment and the rest wait for it.
//
// Only successes are cached. A failed run's entry is dropped before
// BaselineTime returns, so the next caller retries instead of being
// served the stale error forever (internal/resultcache applies the same
// errors-are-never-cached rule to its content-addressed store).
func (h *Harness) BaselineTime(n int, dist keys.Dist) (float64, error) {
	k := baselineKey{n: n, dist: dist, radix: 8, seed: h.opts.Seed}
	h.mu.Lock()
	e, ok := h.baseline[k]
	if !ok {
		e = &baselineEntry{}
		h.baseline[k] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		runFn := h.runBaseline
		if runFn == nil {
			runFn = Run
		}
		out, err := runFn(Experiment{
			Algorithm: Radix, Model: Seq, N: n, Procs: 1, Radix: 8,
			Dist: dist, Seed: h.opts.Seed, FullSize: h.opts.FullSize,
			Paranoid: h.opts.Paranoid, ParanoidSampleEvery: h.opts.ParanoidSampleEvery,
		})
		if err != nil {
			e.err = err
			return
		}
		h.note(out.TimeNs)
		h.progress("baseline n=%d dist=%v: %s", n, dist, report.Ms(out.TimeNs))
		e.timeNs = out.TimeNs
	})
	if e.err != nil {
		// Drop the poisoned entry so the next caller retries; the map may
		// already hold a fresh entry from a later caller, so only delete
		// our own.
		h.mu.Lock()
		if h.baseline[k] == e {
			delete(h.baseline, k)
		}
		h.mu.Unlock()
	}
	return e.timeNs, e.err
}

// Traces returns a copy of the event traces collected so far
// (opts.Trace must be set), in the deterministic order the drivers
// submitted their cells. The harness keeps its buffer: Traces is for
// one-shot drivers (cmd/paperfigs) that inspect the full set after a
// run. Long-lived processes should drain with TakeTraces instead, or
// the buffer grows without bound.
func (h *Harness) Traces() []*trace.Trace {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	out := make([]*trace.Trace, len(h.traces))
	copy(out, h.traces)
	return out
}

// TakeTraces drains the collected traces, transferring ownership to the
// caller and leaving the harness's buffer empty. Long-lived processes
// (cmd/simd) call this after each traced run so trace memory is bounded
// by in-flight work, not process lifetime.
func (h *Harness) TakeTraces() []*trace.Trace {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	out := h.traces
	h.traces = nil
	return out
}

// RunExperiment executes one fully-specified experiment, counting it in
// the harness's stats and progress stream. Unlike the figure drivers, it
// honors the experiment's own Seed, FullSize, Trace and Paranoid fields
// rather than folding in harness options — it is the entry point for
// callers (cmd/simd) whose requests carry those settings per cell. When
// e.Trace is set the trace is retained on the harness; long-lived
// callers should drain it with TakeTraces.
func (h *Harness) RunExperiment(e Experiment) (*Outcome, error) {
	out, err := Run(e)
	if err != nil {
		return nil, err
	}
	h.note(out.TimeNs)
	h.progress("%-6s %-9s n=%-8d p=%-2d r=%-2d %-7v  %s",
		e.Algorithm, e.Model, e.N, e.Procs, e.Radix, e.Dist, report.Ms(out.TimeNs))
	if tr := out.Trace(); tr != nil {
		h.traceMu.Lock()
		h.traces = append(h.traces, tr)
		h.traceMu.Unlock()
	}
	return out, nil
}

// run executes one experiment with harness-wide settings folded in.
func (h *Harness) run(e Experiment) (*Outcome, error) {
	e.Seed = h.opts.Seed
	e.FullSize = h.opts.FullSize
	e.Trace = h.opts.Trace
	e.Paranoid = h.opts.Paranoid
	e.ParanoidSampleEvery = h.opts.ParanoidSampleEvery
	out, err := Run(e)
	if err != nil {
		return nil, err
	}
	h.note(out.TimeNs)
	h.progress("%-6s %-9s n=%-8d p=%-2d r=%-2d %-7v  %s",
		e.Algorithm, e.Model, e.N, e.Procs, e.Radix, e.Dist, report.Ms(out.TimeNs))
	return out, nil
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

// speedupVariant is one series of a speedup figure: a label and the
// (algorithm, model) pair it runs. Allowing the algorithm to vary per
// series is what lets FigurePSRS put PSRS and sample sort on one grid;
// Topo additionally reshapes the series' interconnect, which is what
// lets FigureTopo sweep the same sorts across every network kind.
type speedupVariant struct {
	Label string
	Alg   Algorithm
	Model Model
	Topo  string
}

// speedupFigureVariants sweeps arbitrary (algorithm, model) series over
// the sizes × processor-counts grid, all against the shared sequential
// radix baseline.
func (h *Harness) speedupFigureVariants(title string, variants []speedupVariant) (*SpeedupFigure, error) {
	f := &SpeedupFigure{
		Title:   title,
		Procs:   h.opts.Procs,
		Speedup: make(map[string]map[string]float64),
	}
	for _, v := range variants {
		f.Variants = append(f.Variants, v.Label)
		f.Speedup[v.Label] = make(map[string]float64)
	}
	var cells []gridCell
	for _, s := range h.opts.Sizes {
		f.Sizes = append(f.Sizes, s.Label)
		n := h.sizeN(s)
		cells = append(cells, baselineCell(n, keys.Gauss))
		for _, p := range h.opts.Procs {
			for _, v := range variants {
				cells = append(cells, expCell(Experiment{
					Algorithm: v.Alg, Model: v.Model, N: n, Procs: p, Radix: 8, Dist: keys.Gauss,
					Topo: v.Topo,
				}))
			}
		}
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	cur := &gridCursor{res: res}
	for _, s := range h.opts.Sizes {
		base := cur.take().base
		for _, p := range h.opts.Procs {
			for _, v := range variants {
				f.Speedup[v.Label][gridKey(s.Label, p)] = base / cur.take().out.TimeNs
			}
		}
	}
	return f, nil
}

// speedupFigure sweeps a set of models of a single algorithm.
func (h *Harness) speedupFigure(title string, alg Algorithm,
	variants []struct {
		Label string
		Model Model
	}) (*SpeedupFigure, error) {
	vs := make([]speedupVariant, len(variants))
	for i, v := range variants {
		vs[i] = speedupVariant{Label: v.Label, Alg: alg, Model: v.Model}
	}
	return h.speedupFigureVariants(title, vs)
}

// Table1 reproduces the sequential radix sort times for the Gauss
// distribution (paper Table 1).
func (h *Harness) Table1() (*report.Table, []float64, error) {
	t := &report.Table{
		Title:  "Table 1: sequential radix sort time, Gauss keys (simulated)",
		Header: []string{"size", "keys", "time"},
	}
	var cells []gridCell
	for _, s := range h.opts.Sizes {
		cells = append(cells, baselineCell(h.sizeN(s), keys.Gauss))
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	for i, s := range h.opts.Sizes {
		base := res[i].base
		times = append(times, base)
		t.AddRow(s.Label, fmt.Sprintf("%d", h.sizeN(s)), report.Ms(base))
	}
	return t, times, nil
}

// Figure1 compares radix sort under the two MPI implementations
// (SGI-style staged vs the authors' direct "NEW").
func (h *Harness) Figure1() (*SpeedupFigure, error) {
	return h.speedupFigure("Figure 1: radix sort speedups, SGI vs NEW MPI", Radix,
		[]struct {
			Label string
			Model Model
		}{{"SGI", MPISGI}, {"NEW", MPI}})
}

// Figure2 is Figure1 for sample sort.
func (h *Harness) Figure2() (*SpeedupFigure, error) {
	return h.speedupFigure("Figure 2: sample sort speedups, SGI vs NEW MPI", Sample,
		[]struct {
			Label string
			Model Model
		}{{"SGI", MPISGI}, {"NEW", MPI}})
}

// Figure3 compares radix sort across programming models, including the
// improved CC-SAS-NEW.
func (h *Harness) Figure3() (*SpeedupFigure, error) {
	return h.speedupFigure("Figure 3: radix sort speedups across models", Radix,
		[]struct {
			Label string
			Model Model
		}{{"SHMEM", SHMEM}, {"CC-SAS", CCSAS}, {"MPI", MPI}, {"CC-SAS-NEW", CCSASNew}})
}

// Figure7 compares sample sort across programming models.
func (h *Harness) Figure7() (*SpeedupFigure, error) {
	return h.speedupFigure("Figure 7: sample sort speedups across models", Sample,
		[]struct {
			Label string
			Model Model
		}{{"SHMEM", SHMEM}, {"CC-SAS", CCSAS}, {"MPI", MPI}})
}

// FigurePSRS puts PSRS and the splitter-based sample sort on one
// speedup grid across the three programming models — a beyond-paper
// section (DESIGN.md §11): the two algorithms share every phase except
// pivot selection (gather/broadcast through the root vs group splitter
// election) and the finish (multiway merge vs second local radix sort),
// so the grid isolates exactly those two communication shapes.
func (h *Harness) FigurePSRS() (*SpeedupFigure, error) {
	return h.speedupFigureVariants("Figure P: PSRS vs sample sort speedups across models",
		[]speedupVariant{
			{Label: "PSRS-SHMEM", Alg: Psrs, Model: SHMEM},
			{Label: "PSRS-CC-SAS", Alg: Psrs, Model: CCSAS},
			{Label: "PSRS-MPI", Alg: Psrs, Model: MPI},
			{Label: "SMPL-SHMEM", Alg: Sample, Model: SHMEM},
			{Label: "SMPL-CC-SAS", Alg: Sample, Model: CCSAS},
			{Label: "SMPL-MPI", Alg: Sample, Model: MPI},
		})
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
	var figs []*SpeedupFigure
	for _, kind := range FigureTopoKinds {
		vs := make([]speedupVariant, 0, 9)
		for _, av := range []struct {
			tag string
			alg Algorithm
		}{{"RDX", Radix}, {"SMPL", Sample}, {"PSRS", Psrs}} {
			for _, mv := range []struct {
				tag string
				mo  Model
			}{{"SHMEM", SHMEM}, {"CC-SAS", CCSAS}, {"MPI", MPI}} {
				vs = append(vs, speedupVariant{
					Label: av.tag + "-" + mv.tag,
					Alg:   av.alg, Model: mv.mo, Topo: kind,
				})
			}
		}
		f, err := h.speedupFigureVariants(
			fmt.Sprintf("Figure T (%s): radix/sample/PSRS speedups across models", kind), vs)
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

// breakdownFigure runs the given variants at the paper's breakdown
// configuration: the 64M-size class on the largest processor count.
func (h *Harness) breakdownFigure(title string, alg Algorithm, models []Model) (*BreakdownFigure, error) {
	size, err := SizeByLabel("64M")
	if err != nil {
		return nil, err
	}
	procs := h.opts.Procs[len(h.opts.Procs)-1]
	f := &BreakdownFigure{Title: title}
	var cells []gridCell
	for _, mo := range models {
		cells = append(cells, expCell(Experiment{
			Algorithm: alg, Model: mo, N: h.sizeN(size), Procs: procs, Radix: 8, Dist: keys.Gauss,
		}))
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	for i, mo := range models {
		f.Panels = append(f.Panels, BreakdownPanel{Name: string(mo), PerProc: res[i].out.Breakdowns()})
	}
	return f, nil
}

// Figure4 reproduces the radix sort per-processor time breakdowns.
func (h *Harness) Figure4() (*BreakdownFigure, error) {
	return h.breakdownFigure("Figure 4: radix sort time breakdown (64M class)",
		Radix, []Model{CCSAS, CCSASNew, MPI, SHMEM})
}

// Figure8 reproduces the sample sort per-processor time breakdowns.
func (h *Harness) Figure8() (*BreakdownFigure, error) {
	return h.breakdownFigure("Figure 8: sample sort time breakdown (64M class)",
		Sample, []Model{CCSAS, MPI, SHMEM})
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

// distFigure sweeps key distributions for one algorithm/model at the
// largest processor count, reporting times relative to Gauss.
func (h *Harness) distFigure(title string, alg Algorithm, model Model) (*RelativeFigure, error) {
	procs := h.opts.Procs[len(h.opts.Procs)-1]
	f := &RelativeFigure{
		Title:     title,
		Reference: keys.Gauss.String(),
		Relative:  make(map[string]map[string]float64),
	}
	for _, d := range keys.AllDists {
		f.Variants = append(f.Variants, d.String())
		f.Relative[d.String()] = make(map[string]float64)
	}
	var cells []gridCell
	for _, s := range h.opts.Sizes {
		f.Sizes = append(f.Sizes, s.Label)
		n := h.sizeN(s)
		for _, d := range keys.AllDists {
			cells = append(cells, expCell(Experiment{
				Algorithm: alg, Model: model, N: n, Procs: procs, Radix: 8, Dist: d,
			}))
		}
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	cur := &gridCursor{res: res}
	for _, s := range h.opts.Sizes {
		ref := 0.0
		for _, d := range keys.AllDists {
			t := cur.take().out.TimeNs
			if d == keys.Gauss {
				ref = t
			}
			f.Relative[d.String()][s.Label] = t
		}
		for _, d := range keys.AllDists {
			f.Relative[d.String()][s.Label] /= ref
		}
	}
	return f, nil
}

// Figure5 reproduces the radix sort key-distribution study (SHMEM, max
// processor count).
func (h *Harness) Figure5() (*RelativeFigure, error) {
	return h.distFigure("Figure 5: radix sort time by key distribution (SHMEM), relative to Gauss",
		Radix, SHMEM)
}

// Figure9 reproduces the sample sort key-distribution study (CC-SAS).
func (h *Harness) Figure9() (*RelativeFigure, error) {
	return h.distFigure("Figure 9: sample sort time by key distribution (CC-SAS), relative to Gauss",
		Sample, CCSAS)
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
	procs := h.opts.Procs[len(h.opts.Procs)-1]
	size := h.opts.Sizes[len(h.opts.Sizes)-1]
	n := h.sizeN(size)
	programs := []struct {
		name  string
		alg   Algorithm
		model Model
	}{
		{"radix/shmem", Radix, SHMEM},
		{"sample/ccsas", Sample, CCSAS},
		{"psrs/ccsas", Psrs, CCSAS},
	}
	dists := append([]keys.Dist{keys.Gauss}, keys.SkewDists...)
	f := &RelativeFigure{
		Title: fmt.Sprintf("figskew: skewed workloads at the %s class, %dP, relative to each program's Gauss time",
			size.Label, procs),
		Reference: keys.Gauss.String(),
		Relative:  make(map[string]map[string]float64),
	}
	for _, d := range dists {
		f.Variants = append(f.Variants, d.String())
		f.Relative[d.String()] = make(map[string]float64)
	}
	var cells []gridCell
	for _, p := range programs {
		f.Sizes = append(f.Sizes, p.name)
		for _, d := range dists {
			cells = append(cells, expCell(Experiment{
				Algorithm: p.alg, Model: p.model, N: n, Procs: procs, Radix: 8, Dist: d,
			}))
		}
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	cur := &gridCursor{res: res}
	for _, p := range programs {
		ref := 0.0
		for _, d := range dists {
			t := cur.take().out.TimeNs
			if d == keys.Gauss {
				ref = t
			}
			f.Relative[d.String()][p.name] = t
		}
		for _, d := range dists {
			f.Relative[d.String()][p.name] /= ref
		}
	}
	return f, nil
}

// radixFigure sweeps radix sizes relative to radix 8 at the largest
// processor count.
func (h *Harness) radixFigure(title string, alg Algorithm, model Model) (*RelativeFigure, error) {
	procs := h.opts.Procs[len(h.opts.Procs)-1]
	f := &RelativeFigure{
		Title:     title,
		Reference: "radix 8",
		Relative:  make(map[string]map[string]float64),
	}
	for _, r := range h.opts.RadixSweep {
		name := fmt.Sprintf("r=%d", r)
		f.Variants = append(f.Variants, name)
		f.Relative[name] = make(map[string]float64)
	}
	var cells []gridCell
	for _, s := range h.opts.Sizes {
		f.Sizes = append(f.Sizes, s.Label)
		n := h.sizeN(s)
		for _, r := range h.opts.RadixSweep {
			cells = append(cells, expCell(Experiment{
				Algorithm: alg, Model: model, N: n, Procs: procs, Radix: r, Dist: keys.Gauss,
			}))
		}
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	cur := &gridCursor{res: res}
	for _, s := range h.opts.Sizes {
		times := make(map[int]float64)
		for _, r := range h.opts.RadixSweep {
			times[r] = cur.take().out.TimeNs
		}
		ref, ok := times[8]
		if !ok {
			// Normalize to the first swept radix when 8 is not in the sweep.
			ref = times[h.opts.RadixSweep[0]]
		}
		for _, r := range h.opts.RadixSweep {
			f.Relative[fmt.Sprintf("r=%d", r)][s.Label] = times[r] / ref
		}
	}
	return f, nil
}

// Figure6 reproduces the radix-size study for radix sort (SHMEM).
func (h *Harness) Figure6() (*RelativeFigure, error) {
	return h.radixFigure("Figure 6: radix sort time by radix size (SHMEM), relative to radix 8",
		Radix, SHMEM)
}

// Figure10 reproduces the radix-size study for sample sort (CC-SAS).
func (h *Harness) Figure10() (*RelativeFigure, error) {
	return h.radixFigure("Figure 10: sample sort time by radix size (CC-SAS), relative to radix 8",
		Sample, CCSAS)
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

// Tables23 sweeps models × radix candidates to find the best combination
// per cell, reproducing Tables 2 and 3 together.
func (h *Harness) Tables23() (*BestTables, error) {
	bt := &BestTables{
		Procs: h.opts.Procs,
		Best:  map[Algorithm]map[string]map[int]BestCell{Radix: {}, Sample: {}},
	}
	// The paper's Table 2 picks the best over the three programming
	// models (CC-SAS there means the better of original and NEW).
	variants := map[Algorithm][]Model{
		Radix:  {CCSAS, CCSASNew, MPI, SHMEM},
		Sample: {CCSAS, MPI, SHMEM},
	}
	var cells []gridCell
	for _, s := range h.opts.Sizes {
		bt.Sizes = append(bt.Sizes, s.Label)
		n := h.sizeN(s)
		for _, alg := range []Algorithm{Radix, Sample} {
			for _, p := range h.opts.Procs {
				for _, mo := range variants[alg] {
					for _, r := range h.opts.TableRadixes {
						cells = append(cells, expCell(Experiment{
							Algorithm: alg, Model: mo, N: n, Procs: p, Radix: r, Dist: keys.Gauss,
						}))
					}
				}
			}
		}
	}
	res, err := h.runGrid(cells)
	if err != nil {
		return nil, err
	}
	cur := &gridCursor{res: res}
	for _, s := range h.opts.Sizes {
		for _, alg := range []Algorithm{Radix, Sample} {
			if bt.Best[alg][s.Label] == nil {
				bt.Best[alg][s.Label] = make(map[int]BestCell)
			}
			for _, p := range h.opts.Procs {
				// Ties resolve to the earliest candidate in sweep order,
				// exactly as the serial loop did.
				best := BestCell{TimeNs: -1}
				for _, mo := range variants[alg] {
					for _, r := range h.opts.TableRadixes {
						out := cur.take().out
						if best.TimeNs < 0 || out.TimeNs < best.TimeNs {
							best = BestCell{TimeNs: out.TimeNs, Model: mo, Radix: r}
						}
					}
				}
				bt.Best[alg][s.Label][p] = best
			}
		}
	}
	return bt, nil
}

// Table2 renders the best execution times (paper Table 2).
func (bt *BestTables) Table2() *report.Table {
	t := &report.Table{
		Title:  "Table 2: best execution time (simulated), Gauss keys",
		Header: []string{"size"},
	}
	for _, alg := range []Algorithm{Radix, Sample} {
		for _, p := range bt.Procs {
			t.Header = append(t.Header, fmt.Sprintf("%s %dP", alg, p))
		}
	}
	for _, s := range bt.Sizes {
		row := []string{s}
		for _, alg := range []Algorithm{Radix, Sample} {
			for _, p := range bt.Procs {
				row = append(row, report.Ms(bt.Best[alg][s][p].TimeNs))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Table3 renders the winning model and radix per cell (paper Table 3).
func (bt *BestTables) Table3() *report.Table {
	t := &report.Table{
		Title:  "Table 3: best model and radix size per configuration",
		Header: []string{"size"},
	}
	for _, alg := range []Algorithm{Radix, Sample} {
		for _, p := range bt.Procs {
			t.Header = append(t.Header, fmt.Sprintf("%s %dP", alg, p))
		}
	}
	for _, s := range bt.Sizes {
		row := []string{s}
		for _, alg := range []Algorithm{Radix, Sample} {
			for _, p := range bt.Procs {
				c := bt.Best[alg][s][p]
				row = append(row, fmt.Sprintf("%s %d", c.Model, c.Radix))
			}
		}
		t.AddRow(row...)
	}
	return t
}
