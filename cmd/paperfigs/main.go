// Command paperfigs regenerates the tables and figures of "Parallel
// Sorting on Cache-coherent DSM Multiprocessors" (SC 1999) on the
// simulated machine.
//
// Usage:
//
//	paperfigs [-exp all|table1|fig1|...|figpsrs|table23|figtopo|figskew] [-sizes 1M,4M,16M]
//	          [-procs 16,32,64] [-seed N] [-j N] [-v]
//	          [-paranoid] [-trace out.json] [-cpuprofile out.pprof]
//
// -paranoid runs every experiment cell with the invariant-checking
// reference models enabled (DESIGN.md §9): stdout stays byte-identical,
// host time grows severalfold, and the command fails on the first cell
// whose fast path disagrees with the reference models.
//
// -cpuprofile writes a pprof CPU profile of the host process.
//
// -trace records a virtual-time event trace of every experiment cell and
// writes them all to one Chrome trace_event JSON file (one Perfetto
// process per cell, one track per simulated processor). The file is
// deterministic: byte-identical at any -j.
//
// By default every experiment runs on the scaled machine over all five
// size classes; use -sizes to restrict (the 64M/256M classes take
// minutes of host time on a small machine).
//
// Experiment cells run concurrently on -j worker goroutines (default
// GOMAXPROCS). The simulator's virtual time is independent of host
// scheduling and results are gathered in deterministic cell order, so
// stdout is byte-identical at any -j; only wall-clock changes. Per-figure
// wall-clock is measured by cmd/bench's paper-grid workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro"
	"repro/internal/hostprof"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

// run is the command body, parameterized over arguments and output
// streams so the golden-file test can drive it in-process. Figure/table
// blocks go to stdout; progress goes to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: all, table1, fig1..fig10, figpsrs, table23, figtopo, figskew (figtopo/figskew are beyond-paper and excluded from all)")
		sizes     = fs.String("sizes", "", "comma-separated size classes (1M,4M,16M,64M,256M); default all")
		procs     = fs.String("procs", "", "comma-separated processor counts; default 16,32,64")
		radixes   = fs.String("radixes", "", "comma-separated radix sweep for fig6/fig10; default 6..12")
		seed      = fs.Uint64("seed", 0, "key generation seed")
		par       = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent experiment runs (>= 1)")
		paranoid  = fs.Bool("paranoid", false, "shadow every access with the reference models and invariant checks (slow; fails on any violation)")
		paranoidN = fs.Int("paranoid-sample", 0, "spot-sample the paranoid checks every N priced events (0/1 = full per-access checks; N>1 implies -paranoid and keeps the fast kernels)")
		traceTo   = fs.String("trace", "", "write every cell's event trace to this Chrome trace_event JSON file")
		cpuprof   = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		verbose   = fs.Bool("v", false, "print one line per completed run")
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
	// repro.Figures is the list of experiments, in the order -exp all
	// prints them; all skips the beyond-paper extras.
	var selected []repro.Figure
	for _, f := range repro.Figures {
		if *exp == f.Name || (*exp == "all" && !f.Extra) {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want all, table1, fig1..fig10, figpsrs, table23, figtopo, or figskew)", *exp)
	}

	opts := repro.Options{Seed: *seed, Parallelism: *par, Trace: *traceTo != "", Paranoid: *paranoid, ParanoidSampleEvery: *paranoidN}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			sc, err := repro.SizeByLabel(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			if slices.Contains(opts.Sizes, sc) {
				return fmt.Errorf("-sizes: %s is listed twice", sc.Label)
			}
			opts.Sizes = append(opts.Sizes, sc)
		}
	}
	if *procs != "" {
		if opts.Procs, err = parseInts("-procs", *procs); err != nil {
			return err
		}
	}
	if *radixes != "" {
		if opts.RadixSweep, err = parseInts("-radixes", *radixes); err != nil {
			return err
		}
	}
	if *verbose {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	h := repro.NewHarness(opts)

	// The profile starts last, so a rejected command line leaves no
	// profile file behind, and a failure to finish it fails the command.
	stopProfile, err := hostprof.Start(*cpuprof, "")
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfile(); err == nil {
			err = serr
		}
	}()
	for _, f := range selected {
		blocks, err := f.Run(h)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			fmt.Fprintln(stdout, b)
		}
	}
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, h.Traces()...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "paperfigs: wrote %s (%d traces; open in Perfetto)\n",
			*traceTo, len(h.Traces()))
	}
	return nil
}

// parseInts parses a comma-separated list of distinct positive ints.
func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", flagName, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s: values must be >= 1, got %d", flagName, v)
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("%s: %d is listed twice", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
