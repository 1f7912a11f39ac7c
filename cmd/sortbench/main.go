// Command sortbench runs one sorting experiment on the simulated DSM
// machine and prints its simulated time and per-processor breakdown.
//
// Usage:
//
//	sortbench -algo radix -model shmem -n 262144 -procs 16 -radix 8 \
//	          -dist gauss [-seed N] [-seeds K] [-confidence 0.95] \
//	          [-full] [-perproc] [-paranoid] \
//	          [-trace out.json] [-metrics out.json]
//	          [-cpuprofile out.pprof] [-memprofile out.pprof]
//	sortbench -predict [-validate [-paranoid]] [-j N] -n 1048576 -procs 16 \
//	          -radix 8 [-topo numa2] [-full]
//	sortbench -sweep radix|bufdepth|flatmem|nocontention [-j N] \
//	          [-algo radix] [-model shmem] [-n N] [-procs P] [-dist gauss]
//
// -seeds K (K >= 2) switches to ensemble mode: the experiment runs at K
// consecutive seeds starting from -seed, and the output is each
// metric's mean, sample stddev and Student-t confidence interval
// (internal/stats; -confidence selects 0.95 or 0.99) instead of a
// single point estimate. Ensemble mode is about the statistics of the
// simulated metrics, so it excludes the single-run outputs -trace,
// -metrics and -perproc.
//
// -predict runs the analytic performance model (the paper's stated
// future work; internal/perfmodel) instead of the simulator: for the
// experiment's machine and workload shape it prints each programming
// model's predicted radix-sort time, fastest first, and the predicted
// winner's phase breakdown. The analytic model covers radix sort only.
// With -validate every predicted model is also simulated — independent
// runs, concurrent on -j workers (default GOMAXPROCS), identical numbers
// at any -j — and the table gains the simulated time and the
// predicted/simulated ratio. Without -validate nothing is simulated, so
// -paranoid and -paranoid-sample are refused there.
//
// -sweep runs one of the parameter sweeps and ablations DESIGN.md §4 calls
// out over the experiment the other flags name: radix sizes 6..12,
// MPI window depths 1..64 (-model is replaced by mpi), and the
// flat-memory and no-contention ablations, which run every model of -algo
// (the staged MPI library aside) as modeled and with the one mechanism
// switched off. Sweep points are independent simulations, concurrent on
// -j workers like -validate's.
//
// -paranoid shadows every simulated access with the slow reference
// models and invariant checks of internal/check (DESIGN.md §9). Output
// is byte-identical to a normal run; if any check is violated the
// command fails with a structured error naming the processor, phase and
// address of the first disagreement.
//
// -trace writes a Chrome trace_event JSON file of the run (open it in
// Perfetto or chrome://tracing; one track per simulated processor).
// -metrics writes the run's flat metrics map as JSON. Both outputs are
// deterministic: the same experiment always produces identical bytes.
//
// -cpuprofile and -memprofile write pprof CPU and allocation profiles of
// the host process: where one cell's host time and memory go. Host-time
// measurement (ns per simulated access and the rest) is cmd/bench's job,
// not this command's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro"
	"repro/internal/hostprof"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sortbench:", err)
		os.Exit(1)
	}
}

// run is the command body, parameterized over arguments and output
// streams so the tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sortbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo       = fs.String("algo", "radix", "algorithm: radix, sample, or psrs")
		model      = fs.String("model", "shmem", "model: seq, ccsas, ccsas-new, mpi, mpi-sgi, shmem")
		n          = fs.Int("n", 1<<18, "key count")
		procs      = fs.Int("procs", 16, "processor count")
		radix      = fs.Int("radix", 8, "radix size in bits")
		dist       = fs.String("dist", "gauss", "key distribution")
		topo       = fs.String("topo", "", "interconnect kind (hypercube, fattree, torus, torus3d, dragonfly, numa2); default hypercube")
		seed       = fs.Uint64("seed", 0, "key generation seed")
		seedsK     = fs.Int("seeds", 0, "ensemble mode: run K >= 2 consecutive seeds starting at -seed and print mean/stddev/CI per metric")
		confidence = fs.Float64("confidence", 0.95, "ensemble confidence level: 0.95 or 0.99")
		full       = fs.Bool("full", false, "use the full-size (unscaled) Origin2000 parameters")
		paranoid   = fs.Bool("paranoid", false, "shadow every access with the reference models and invariant checks (slow; fails on any violation)")
		paranoidN  = fs.Int("paranoid-sample", 0, "spot-sample the paranoid checks every N priced events (0/1 = full per-access checks; N>1 implies -paranoid and keeps the fast kernels)")
		perproc    = fs.Bool("perproc", false, "print the per-processor breakdown")
		traceTo    = fs.String("trace", "", "write a Chrome trace_event JSON trace to this file")
		metrics    = fs.String("metrics", "", "write the flat metrics map as JSON to this file")
		predict    = fs.Bool("predict", false, "predict every programming model's radix-sort time analytically instead of simulating")
		validate   = fs.Bool("validate", false, "with -predict: also simulate every predicted model and report the prediction error")
		sweepKind  = fs.String("sweep", "", "sweep mode: radix, bufdepth, flatmem or nocontention around the experiment")
		par        = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulator runs of -predict -validate, -seeds and -sweep (>= 1)")
		cpuprof    = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memprof    = fs.String("memprofile", "", "write a host allocation profile to this file")
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
	singleRunOutputs := *traceTo != "" || *metrics != "" || *perproc
	switch {
	case *seedsK != 0 && singleRunOutputs:
		return fmt.Errorf("-seeds is incompatible with -trace, -metrics and -perproc")
	case *predict && (singleRunOutputs || *seedsK != 0):
		return fmt.Errorf("-predict is incompatible with -seeds, -trace, -metrics and -perproc")
	case *predict && !*validate && (*paranoid || *paranoidN != 0):
		return fmt.Errorf("-predict without -validate simulates nothing: -paranoid and -paranoid-sample need -validate")
	case *validate && !*predict:
		return fmt.Errorf("-validate needs -predict")
	case *sweepKind != "" && (singleRunOutputs || *seedsK != 0 || *predict):
		return fmt.Errorf("-sweep is incompatible with -seeds, -predict, -trace, -metrics and -perproc")
	case *sweepKind != "" && sweeps[*sweepKind] == nil:
		return fmt.Errorf("unknown sweep kind %q", *sweepKind)
	}
	// One Experiment for every mode, so a flag one mode honors cannot be
	// dropped by another (-seeds, -predict and -sweep forbid the flags
	// behind Trace).
	e, _, err := repro.Request{
		Algorithm: *algo, Model: *model, N: *n, Procs: *procs, Radix: *radix,
		Dist: *dist, Topo: *topo, Seed: *seed, FullSize: *full,
		Trace: *traceTo != "" || *metrics != "",
	}.Experiment()
	if err != nil {
		return err
	}
	e.Paranoid, e.ParanoidSampleEvery = *paranoid, *paranoidN
	if *predict && e.Algorithm != repro.Radix {
		return fmt.Errorf("-predict: the analytic model covers radix sort only, got -algo %s", e.Algorithm)
	}
	// Profiles start last, so a rejected command line leaves no profile
	// file behind, and stop on every return, so a failed run still leaves
	// complete ones.
	stopProfiles, err := hostprof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()
	// The batch modes run their cells through one harness.
	h := repro.NewHarness(repro.Options{Parallelism: *par})
	switch {
	case *predict:
		return runPredict(stdout, h, e, *validate)
	case *seedsK != 0:
		return runEnsemble(stdout, e, *seedsK, *confidence, *par)
	case *sweepKind != "":
		exps, table := sweeps[*sweepKind](e)
		cells, err := h.RunCells(exps)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table(cells))
		return nil
	}
	out, err := repro.Run(e)
	if err != nil {
		return err
	}
	if *traceTo != "" {
		if err := writeFile(*traceTo, func(w io.Writer) error {
			return trace.WriteChrome(w, out.Trace())
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: wrote %s (Chrome trace_event JSON; open in Perfetto)\n", *traceTo)
	}
	if *metrics != "" {
		if err := writeFile(*metrics, out.Trace().WriteMetrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics: wrote %s\n", *metrics)
	}

	fmt.Fprintf(stdout, "%s/%s  n=%d  procs=%d  radix=%d  dist=%s\n",
		e.Algorithm, e.Model, e.N, e.Procs, e.Radix, e.Dist)
	fmt.Fprintf(stdout, "simulated time: %s  (verified sorted: %v)\n",
		report.Ms(out.TimeNs), out.Verified)

	bds := out.Breakdowns()
	var sum, maxTotal float64
	for _, b := range bds {
		sum += b.Total()
		if b.Total() > maxTotal {
			maxTotal = b.Total()
		}
	}
	mean := sum / float64(len(bds))
	fmt.Fprintf(stdout, "per-proc mean: %s  max: %s\n", report.Ms(mean), report.Ms(maxTotal))

	if *perproc {
		t := &report.Table{
			Title:  "Per-processor breakdown (ms)",
			Header: []string{"proc", "BUSY", "LMEM", "RMEM", "SYNC", "total"},
		}
		for i, b := range bds {
			t.AddRow(fmt.Sprintf("%d", i),
				report.F(b.Busy/1e6), report.F(b.LMem/1e6),
				report.F(b.RMem/1e6), report.F(b.Sync/1e6), report.F(b.Total()/1e6))
		}
		fmt.Fprintln(stdout, t)
	}
	return nil
}

// runPredict is the -predict mode: the analytic model's ranking of the
// programming models on the experiment's platform and workload shape,
// then the predicted winner's phases. With validate, the experiment is
// also simulated under every predicted model, concurrently on h's
// workers before anything is rendered.
func runPredict(stdout io.Writer, h *repro.Harness, e repro.Experiment, validate bool) error {
	ranked, err := repro.Predict(e)
	if err != nil {
		return err
	}
	var sims []repro.Cell
	if validate {
		exps := make([]repro.Experiment, len(ranked))
		for i, p := range ranked {
			exps[i] = e
			exps[i].Model = repro.Model(p.Model)
		}
		if sims, err = h.RunCells(exps); err != nil {
			return err
		}
	}

	t := &report.Table{
		Title:  fmt.Sprintf("Predicted radix sort times: n=%d procs=%d radix=%d", e.N, e.Procs, e.Radix),
		Header: []string{"rank", "model", "predicted"},
	}
	if validate {
		t.Header = append(t.Header, "simulated", "pred/sim")
	}
	for i, p := range ranked {
		row := []string{fmt.Sprintf("%d", i+1), string(p.Model), report.Ms(p.TimeNs)}
		if validate {
			row = append(row, report.Ms(sims[i].TimeNs), report.F(p.TimeNs/sims[i].TimeNs))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(stdout, t)

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
	fmt.Fprintln(stdout, pt)
	return nil
}

// runEnsemble is the -seeds mode: the experiment across K consecutive
// seeds starting at its own, reduced to per-metric mean/stddev/CI by
// internal/stats.
func runEnsemble(stdout io.Writer, e repro.Experiment, seedsK int, confidence float64, par int) error {
	label := fmt.Sprintf("%s/%s", e.Algorithm, e.Model)
	ens, err := stats.RunEnsemble(
		stats.Config{Seeds: seedsK, BaseSeed: e.Seed, Confidence: confidence, Parallelism: par},
		[]stats.Variant{{Label: label, Exp: e}})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s  n=%d  procs=%d  radix=%d  dist=%s  seeds=%d..%d  confidence=%g\n",
		label, e.N, e.Procs, e.Radix, e.Dist, e.Seed, e.Seed+uint64(seedsK)-1, ens.Confidence)
	t := &report.Table{
		Title:  "Ensemble summary (ms, breakdown summed over processors)",
		Header: []string{"metric", "mean", "stddev", "ci lo", "ci hi"},
	}
	for _, mt := range ens.Variant(label).Metrics {
		t.AddRow(mt.Name, report.F(mt.Mean/1e6), report.F(mt.Std/1e6),
			report.F(mt.CILo/1e6), report.F(mt.CIHi/1e6))
	}
	fmt.Fprintln(stdout, t)
	return nil
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
