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
//
// -seeds K (K >= 2) switches to ensemble mode: the experiment runs at K
// consecutive seeds starting from -seed, and the output is each
// metric's mean, sample stddev and Student-t confidence interval
// (internal/stats; -confidence selects 0.95 or 0.99) instead of a
// single point estimate. Ensemble mode is about the statistics of the
// simulated metrics, so it excludes the single-run outputs -trace,
// -metrics and -perproc.
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

	"repro"
	"repro/internal/hostprof"
	"repro/internal/keys"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		algo       = flag.String("algo", "radix", "algorithm: radix, sample, or psrs")
		model      = flag.String("model", "shmem", "model: seq, ccsas, ccsas-new, mpi, mpi-sgi, shmem")
		n          = flag.Int("n", 1<<18, "key count")
		procs      = flag.Int("procs", 16, "processor count (power of two)")
		radix      = flag.Int("radix", 8, "radix size in bits")
		dist       = flag.String("dist", "gauss", "key distribution")
		topo       = flag.String("topo", "", "interconnect kind (hypercube, fattree, torus, torus3d, dragonfly, numa2); default hypercube")
		seed       = flag.Uint64("seed", 0, "key generation seed")
		seedsK     = flag.Int("seeds", 0, "ensemble mode: run K >= 2 consecutive seeds starting at -seed and print mean/stddev/CI per metric")
		confidence = flag.Float64("confidence", 0.95, "ensemble confidence level: 0.95 or 0.99")
		full       = flag.Bool("full", false, "use the full-size (unscaled) Origin2000 parameters")
		paranoid   = flag.Bool("paranoid", false, "shadow every access with the reference models and invariant checks (slow; fails on any violation)")
		paranoidN  = flag.Int("paranoid-sample", 0, "spot-sample the paranoid checks every N priced events (0/1 = full per-access checks; N>1 implies -paranoid and keeps the fast kernels)")
		perproc    = flag.Bool("perproc", false, "print the per-processor breakdown")
		traceTo    = flag.String("trace", "", "write a Chrome trace_event JSON trace to this file")
		metrics    = flag.String("metrics", "", "write the flat metrics map as JSON to this file")
		cpuprof    = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memprof    = flag.String("memprofile", "", "write a host allocation profile to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %v", flag.Args()))
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
	if *seedsK != 0 && (*traceTo != "" || *metrics != "" || *perproc) {
		fatal(fmt.Errorf("-seeds is incompatible with -trace, -metrics and -perproc"))
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
	// One Experiment for both modes, so a flag one mode honors cannot be
	// dropped by the other (-seeds forbids the flags behind Trace).
	e := repro.Experiment{
		Algorithm: a, Model: m, N: *n, Procs: *procs, Radix: *radix,
		Dist: d, Topo: tp, Seed: *seed, FullSize: *full, Paranoid: *paranoid,
		ParanoidSampleEvery: *paranoidN,
		Trace:               *traceTo != "" || *metrics != "",
	}
	if *seedsK != 0 {
		if err := runEnsemble(e, *seedsK, *confidence); err != nil {
			fatal(err)
		}
		return
	}
	out, err := repro.Run(e)
	if err != nil {
		fatal(err)
	}
	if *traceTo != "" {
		if err := writeFile(*traceTo, func(w io.Writer) error {
			return trace.WriteChrome(w, out.Trace())
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %s (Chrome trace_event JSON; open in Perfetto)\n", *traceTo)
	}
	if *metrics != "" {
		if err := writeFile(*metrics, out.Trace().WriteMetrics); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: wrote %s\n", *metrics)
	}

	fmt.Printf("%s/%s  n=%d  procs=%d  radix=%d  dist=%s\n",
		a, m, *n, *procs, *radix, d)
	fmt.Printf("simulated time: %s  (verified sorted: %v)\n",
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
	fmt.Printf("per-proc mean: %s  max: %s\n", report.Ms(mean), report.Ms(maxTotal))

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
		fmt.Println(t)
	}
}

// runEnsemble is the -seeds mode: the experiment across K consecutive
// seeds starting at its own, reduced to per-metric mean/stddev/CI by
// internal/stats.
func runEnsemble(e repro.Experiment, seedsK int, confidence float64) error {
	label := fmt.Sprintf("%s/%s", e.Algorithm, e.Model)
	ens, err := stats.RunEnsemble(
		stats.Config{Seeds: seedsK, BaseSeed: e.Seed, Confidence: confidence},
		[]stats.Variant{{Label: label, Exp: e}})
	if err != nil {
		return err
	}
	fmt.Printf("%s  n=%d  procs=%d  radix=%d  dist=%s  seeds=%d..%d  confidence=%g\n",
		label, e.N, e.Procs, e.Radix, e.Dist, e.Seed, e.Seed+uint64(seedsK)-1, ens.Confidence)
	t := &report.Table{
		Title:  "Ensemble summary (ms, breakdown summed over processors)",
		Header: []string{"metric", "mean", "stddev", "ci lo", "ci hi"},
	}
	for _, mt := range ens.Variant(label).Metrics {
		t.AddRow(mt.Name, report.F(mt.Mean/1e6), report.F(mt.Std/1e6),
			report.F(mt.CILo/1e6), report.F(mt.CIHi/1e6))
	}
	fmt.Println(t)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sortbench:", err)
	os.Exit(1)
}
