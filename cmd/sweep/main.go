// Command sweep runs the parameter sweeps and ablations DESIGN.md §4
// calls out: radix-size and buffer-depth sweeps, and the flat-memory /
// no-contention ablations that show which modeled mechanisms carry the
// paper's effects.
//
// Usage:
//
//	sweep -kind radix|bufdepth|flatmem|nocontention
//	      [-algo radix|sample|psrs] [-model shmem] [-n N] [-procs P] [-dist gauss]
//	      [-j N] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Sweep points are independent deterministic simulations; -j runs them
// concurrently (default GOMAXPROCS) without changing any reported number.
// -cpuprofile and -memprofile write pprof CPU and allocation profiles of
// the host process.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro"
	"repro/internal/hostprof"
	"repro/internal/keys"
	"repro/internal/report"
)

func main() {
	var (
		kind  = flag.String("kind", "radix", "sweep kind: radix, bufdepth, flatmem, nocontention")
		algo  = flag.String("algo", "radix", "algorithm: radix, sample, or psrs")
		model = flag.String("model", "shmem", "model")
		n     = flag.Int("n", 1<<18, "key count")
		procs = flag.Int("procs", 16, "processor count")
		dist  = flag.String("dist", "gauss", "key distribution")
		topo  = flag.String("topo", "", "interconnect kind (hypercube, fattree, torus, torus3d, dragonfly, numa2); default hypercube")
		seed  = flag.Uint64("seed", 0, "seed")
		par   = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent experiment runs (>= 1)")

		cpuprof = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a host allocation profile to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *par < 1 {
		fatal(fmt.Errorf("-j must be >= 1, got %d", *par))
	}
	if *n < 1 {
		fatal(fmt.Errorf("-n must be >= 1, got %d", *n))
	}
	if *procs < 1 {
		fatal(fmt.Errorf("-procs must be >= 1, got %d", *procs))
	}

	a, err := repro.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	m, err := repro.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	d, err := keys.ParseDist(*dist)
	if err != nil {
		fatal(err)
	}
	tp, err := repro.ParseTopology(*topo)
	if err != nil {
		fatal(err)
	}
	// An unknown -kind is refused here, before the profile files exist.
	run, ok := sweeps[*kind]
	if !ok {
		fatal(fmt.Errorf("unknown sweep kind %q", *kind))
	}
	base := repro.Experiment{
		Algorithm: a, Model: m, N: *n, Procs: *procs, Radix: 8, Dist: d, Topo: tp, Seed: *seed,
	}
	stopProfiles, err := hostprof.Start(*cpuprof, *memprof)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()
	t, err := run(base, *par)
	if err != nil {
		fatal(err)
	}
	fmt.Println(t)
}

// sweeps maps each -kind to the sweep it runs over the base experiment
// on par workers.
var sweeps = map[string]func(base repro.Experiment, par int) (*report.Table, error){
	"radix":    radixSweep,
	"bufdepth": bufDepthSweep,
	"flatmem": func(base repro.Experiment, par int) (*report.Table, error) {
		return ablation("flatmem", func(e *repro.Experiment) { e.FlatMemory = true }, base, par)
	},
	"nocontention": func(base repro.Experiment, par int) (*report.Table, error) {
		return ablation("nocontention", func(e *repro.Experiment) { e.NoContention = true }, base, par)
	},
}

func radixSweep(base repro.Experiment, par int) (*report.Table, error) {
	radixes := []int{6, 7, 8, 9, 10, 11, 12}
	exps := make([]repro.Experiment, len(radixes))
	for i, r := range radixes {
		exps[i] = base
		exps[i].Radix = r
	}
	outs, err := repro.RunAll(par, exps)
	if err != nil {
		return nil, err
	}
	ref := 0.0
	for i, r := range radixes {
		if r == 8 {
			ref = outs[i].TimeNs
		}
	}
	t := &report.Table{
		Title:  fmt.Sprintf("Radix-size sweep: %s/%s n=%d procs=%d", base.Algorithm, base.Model, base.N, base.Procs),
		Header: []string{"radix", "passes", "time", "vs r=8"},
	}
	for i, r := range radixes {
		t.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%d", (31+r-1)/r),
			report.Ms(outs[i].TimeNs), report.F(outs[i].TimeNs/ref))
	}
	return t, nil
}

// bufDepthSweep is the paper's §4.2: deeper per-pair buffers alleviate
// MPI's SYNC stalls but do not eliminate them (and cost O(p^2) memory).
func bufDepthSweep(base repro.Experiment, par int) (*report.Table, error) {
	depths := []int{1, 2, 4, 16, 64}
	exps := make([]repro.Experiment, len(depths))
	for i, depth := range depths {
		exps[i] = base
		exps[i].Model = repro.MPI
		exps[i].MPIBufDepth = depth
	}
	outs, err := repro.RunAll(par, exps)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("MPI window-depth ablation: %s n=%d procs=%d", base.Algorithm, base.N, base.Procs),
		Header: []string{"depth", "time", "sum SYNC (ms)"},
	}
	for i, depth := range depths {
		var sync float64
		for _, b := range outs[i].Breakdowns() {
			sync += b.Sync
		}
		t.AddRow(fmt.Sprintf("%d", depth), report.Ms(outs[i].TimeNs), report.F(sync/1e6))
	}
	return t, nil
}

// ablation runs every model of the base algorithm (the staged MPI
// library aside) twice, as modeled and with one mechanism ablated.
func ablation(kind string, ablate func(*repro.Experiment), base repro.Experiment, par int) (*report.Table, error) {
	var models []repro.Model
	for _, mo := range repro.Models(base.Algorithm) {
		if mo != repro.MPISGI {
			models = append(models, mo)
		}
	}
	// Two cells per model: real then ablated.
	exps := make([]repro.Experiment, 0, 2*len(models))
	for _, mo := range models {
		e := base
		e.Model = mo
		exps = append(exps, e)
		ablate(&e)
		exps = append(exps, e)
	}
	outs, err := repro.RunAll(par, exps)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("%s ablation: %s n=%d procs=%d (all %s models)",
			kind, base.Algorithm, base.N, base.Procs, base.Algorithm),
		Header: []string{"model", "real", "ablated", "speedup lost"},
	}
	for i, mo := range models {
		real, abl := outs[2*i], outs[2*i+1]
		t.AddRow(string(mo), report.Ms(real.TimeNs), report.Ms(abl.TimeNs),
			report.F(real.TimeNs/abl.TimeNs))
	}
	return t, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
