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
	"io"
	"os"
	"runtime"

	"repro"
	"repro/internal/hostprof"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the command body, parameterized over arguments and output
// streams so the tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind  = fs.String("kind", "radix", "sweep kind: radix, bufdepth, flatmem, nocontention")
		algo  = fs.String("algo", "radix", "algorithm: radix, sample, or psrs")
		model = fs.String("model", "shmem", "model")
		n     = fs.Int("n", 1<<18, "key count")
		procs = fs.Int("procs", 16, "processor count")
		dist  = fs.String("dist", "gauss", "key distribution")
		topo  = fs.String("topo", "", "interconnect kind (hypercube, fattree, torus, torus3d, dragonfly, numa2); default hypercube")
		seed  = fs.Uint64("seed", 0, "seed")
		par   = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent experiment runs (>= 1)")

		cpuprof = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memprof = fs.String("memprofile", "", "write a host allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *par < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", *par)
	}
	sweep, ok := sweeps[*kind]
	if !ok {
		return fmt.Errorf("unknown sweep kind %q", *kind)
	}
	base, _, err := repro.Request{
		Algorithm: *algo, Model: *model, N: *n, Procs: *procs, Dist: *dist, Topo: *topo, Seed: *seed,
	}.Experiment()
	if err != nil {
		return err
	}
	// Profiles start last, so a rejected command line leaves no profile
	// file behind, and stop on every return, so a failed sweep still
	// leaves complete ones.
	stopProfiles, err := hostprof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()
	t, err := sweep(base, *par)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, t)
	return nil
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
