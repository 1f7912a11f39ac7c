// Command predict runs the analytic performance model (the paper's
// stated future work): given a machine and a radix-sort workload, it
// predicts each programming model's execution time and phase breakdown
// without simulating, and optionally validates against the simulator.
// The analytic model covers radix sort only; sample sort and PSRS runs
// must go through the simulator (sortbench, paperfigs).
//
// Usage:
//
//	predict -n 1048576 -procs 16 -radix 8 [-full] [-validate] [-j N]
//
// With -validate, the per-model simulator runs are independent and run
// concurrently on -j workers (default GOMAXPROCS); reported numbers are
// identical at any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"repro"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/shmem"
)

func main() {
	var (
		n        = flag.Int("n", 1<<20, "key count")
		procs    = flag.Int("procs", 16, "processor count")
		radix    = flag.Int("radix", 8, "radix size in bits")
		full     = flag.Bool("full", false, "use the full-size Origin2000 parameters")
		topo     = flag.String("topo", "", "interconnect kind (hypercube, fattree, torus, torus3d, dragonfly, numa2); default hypercube")
		validate = flag.Bool("validate", false, "also run the simulator and report prediction error")
		par      = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulator runs for -validate (>= 1)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *par < 1 {
		fatal(fmt.Errorf("-j must be >= 1, got %d", *par))
	}
	// The same bounds the simulator enforces (key count, processor
	// count, radix size), checked before predicting anything.
	if err := (repro.Experiment{Algorithm: repro.Radix, Model: repro.MPI,
		N: *n, Procs: *procs, Radix: *radix}).Validate(); err != nil {
		fatal(err)
	}

	tp, err := repro.ParseTopology(*topo)
	if err != nil {
		fatal(err)
	}
	var cfg machine.Config
	mpiCfg := mpi.DefaultDirect()
	shmCfg := shmem.DefaultConfig()
	if *full {
		cfg = machine.Origin2000(*procs)
	} else {
		cfg = machine.Origin2000Scaled(*procs)
		mpiCfg = mpiCfg.Scaled(machine.ScaleFactor)
		shmCfg = shmCfg.Scaled(machine.ScaleFactor)
	}
	cfg.Topology.Kind = tp
	pr, err := perfmodel.New(cfg, mpiCfg, shmCfg)
	if err != nil {
		fatal(err)
	}
	w := perfmodel.Workload{N: *n, Procs: *procs, Radix: *radix}
	ranked, err := pr.PredictAll(w)
	if err != nil {
		fatal(err)
	}
	if len(ranked) == 0 {
		fatal(fmt.Errorf("the performance model returned no predictions"))
	}

	// With -validate, run every predicted model through the simulator
	// concurrently before rendering.
	var sims []*repro.Outcome
	if *validate {
		exps := make([]repro.Experiment, len(ranked))
		for i, p := range ranked {
			exps[i] = repro.Experiment{
				Algorithm: repro.Radix, Model: repro.Model(p.Model),
				N: *n, Procs: *procs, Radix: *radix, FullSize: *full, Topo: tp,
			}
		}
		sims, err = repro.RunAll(*par, exps)
		if err != nil {
			fatal(err)
		}
	}

	t := &report.Table{
		Title:  fmt.Sprintf("Predicted radix sort times: n=%d procs=%d radix=%d", *n, *procs, *radix),
		Header: []string{"rank", "model", "predicted"},
	}
	if *validate {
		t.Header = append(t.Header, "simulated", "pred/sim")
	}
	for i, p := range ranked {
		row := []string{fmt.Sprintf("%d", i+1), string(p.Model), report.Ms(p.TimeNs)}
		if *validate {
			out := sims[i]
			row = append(row, report.Ms(out.TimeNs), report.F(p.TimeNs/out.TimeNs))
		}
		t.AddRow(row...)
	}
	fmt.Println(t)

	// Phase detail for the predicted winner.
	best := ranked[0]
	pt := &report.Table{
		Title:  fmt.Sprintf("Predicted phases for %s", best.Model),
		Header: []string{"phase", "time"},
	}
	names := make([]string, 0, len(best.Phases))
	for name := range best.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pt.AddRow(name, report.Ms(best.Phases[name]))
	}
	fmt.Println(pt)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
