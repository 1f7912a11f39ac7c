// Command bench is the repository's host-time benchmark: four workloads,
// end-to-end and per-layer metrics, a traced pass. See README.md.
//
//	go run -C cmd/bench .                      every workload, both passes
//	bash cmd/bench/run.sh --workload stream-big --seed 1 --seconds 12 --trace 0
//	go run -C cmd/bench . -compare a.json b.json
//
// The bench touches no file of the repository outside its own directory:
// every layer is measured from outside, by timing calls into the layers'
// public functions and requests to the built simd binary.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart anchors setup_s: set-up is timed from process start.
var procStart = time.Now()

// runCtx carries one invocation's settings.
type runCtx struct {
	root     string // repository root
	buildDir string // scratch inside the checkout: binaries, temp dirs
	traceDir string
	exe      string
	workload string
	seed     uint64
	seconds  float64
	rounds   int // fixed round count; 0 measures for `seconds`
	quick    bool
	trace    bool
	nproc    int
	log      io.Writer
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome: the document -out writes, of which
// the final stdout line is the driver's subset.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	SimDigest string `json:"sim_digest,omitempty"`
	// HostFactor is what the run's raw timings were multiplied by to
	// report them at nominal host speed (calibrate.go); 0 when the run
	// reports raw timings only.
	HostFactor float64          `json:"host_factor,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Failures   []string         `json:"failures,omitempty"`
	// Samples are the per-round timings behind the medians, in ms.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// document is the result file of a whole command.
type document struct {
	Schema    string    `json:"schema"`
	GoVersion string    `json:"go"`
	NProc     int       `json:"nproc"`
	Seed      uint64    `json:"seed"`
	Quick     bool      `json:"quick,omitempty"`
	Runs      []*result `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload in this process (default: all four, each in a child process)")
		seed      = fs.Uint64("seed", 1, "the only source of variation: Experiment.Seed of every cell and the request order")
		seconds   = fs.Float64("seconds", runSeconds, "how long one run measures")
		rounds    = fs.Int("rounds", 0, "measure exactly this many rounds instead of for -seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, probes and per-layer metrics")
		out       = fs.String("out", "", "write the result document here (default cmd/bench/out/bench.json when running all workloads)")
		traceDir  = fs.String("trace-dir", "", "directory for the Chrome traces of -trace 1 (default cmd/bench/out)")
		quick     = fs.Bool("quick", false, "one round over reduced cell lists; the whole command takes under 20 s")
		compare   = fs.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
		setupOnly = fs.Bool("setup-only", false, "internal: set the workload up, print the set-up time, exit")
		calibrate = fs.Bool("calibrate", false, "internal: the host-speed calibration helper (calibrate.go)")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json as the declarations in metrics.go give it, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		stdout.Write(manifestJSON())
		return 0
	}
	if *calibrate {
		return calibrateMain(runtime.GOMAXPROCS(0), os.Stdin, stdout)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ctx := &runCtx{
		root: root, buildDir: filepath.Join(root, ".bench_build"), exe: exe,
		traceDir: *traceDir, workload: *workload, seed: *seed, seconds: *seconds,
		rounds: *rounds, quick: *quick, trace: *trace != 0,
		nproc: runtime.GOMAXPROCS(0), log: stdout,
	}
	if ctx.traceDir == "" {
		ctx.traceDir = filepath.Join(root, "cmd", "bench", "out")
	}
	if ctx.quick && ctx.rounds == 0 {
		ctx.rounds = 1
	}
	if err := os.MkdirAll(filepath.Join(ctx.buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(root, "cmd", "bench", "out", "bench.json")
		}
		return runAll(ctx, *out, stdout, stderr)
	}
	if *setupOnly {
		s, err := setupOnlyRun(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", s)
		return 0
	}
	res, err := runWorkload(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "bench: failed:", f)
		}
	}
	// The driver's line: exactly these four keys, metrics as {value, unit}.
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineValue{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = lineValue{v.Value, v.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

// findRoot locates the repository root from the working directory: the
// root itself (the driver's and run.sh's case) or cmd/bench (go run -C).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "..", "..")} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "simd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "bench", "go.mod")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", errors.New("run from the repository root or from cmd/bench")
}

func runWorkload(ctx *runCtx) (*result, error) {
	if ctx.workload == "simd-serve" {
		return runServe(ctx)
	}
	return runCompute(ctx)
}

// childArgs are the flags every child process inherits.
func (ctx *runCtx) childArgs(workload string, trace int) []string {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(ctx.seed), "-seconds", fmt.Sprint(ctx.seconds),
		"-rounds", fmt.Sprint(ctx.rounds), "-trace", fmt.Sprint(trace), "-trace-dir", ctx.traceDir,
	}
	if ctx.quick {
		args = append(args, "-quick")
	}
	return args
}

// runChild runs this binary again from the repository root and returns
// its standard output.
func (ctx *runCtx) runChild(stderr io.Writer, args ...string) ([]byte, error) {
	cmd := exec.Command(ctx.exe, args...)
	cmd.Dir = ctx.root
	cmd.Stderr = stderr
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	err := cmd.Run()
	return outBuf.Bytes(), err
}

// runAll runs every workload in its own child processes (one untraced,
// one traced), so peak RSS and GC state are per workload, prints every
// metric by name and writes the result document.
func runAll(ctx *runCtx, outPath string, stdout, stderr io.Writer) int {
	doc := &document{Schema: "bench/v1", GoVersion: runtime.Version(), NProc: ctx.nproc, Seed: ctx.seed, Quick: ctx.quick}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(ctx.buildDir, "tmp", fmt.Sprintf("%s-%d.json", w.Name, trace))
			args := append(ctx.childArgs(w.Name, trace), "-out", tmp)
			outBytes, err := ctx.runChild(stderr, args...)
			lines := bytes.Split(bytes.TrimRight(outBytes, "\n"), []byte("\n"))
			stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Fprintln(stdout)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.Name, trace, err)
				code = 1
				continue
			}
			var res result
			if err := readJSON(tmp, &res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
				continue
			}
			os.Remove(tmp)
			if !res.Correct {
				code = 1
			}
			doc.Runs = append(doc.Runs, &res)
		}
	}
	if err := writeJSON(outPath, doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return code
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	pass := "end-to-end, tracing off"
	if res.Trace {
		pass = "per-layer, traced pass and probes"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)\n", res.Workload, res.Seed, pass)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		if v.Samples > 0 {
			fmt.Fprintf(w, "%-44s %16.6g %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "%-44s %16.6g %s\n", n, v.Value, v.Unit)
		}
	}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-44s %16.6g ratio  (%d of %d)\n", "failed_frac", failedFrac, res.Failed, res.Attempted)
	if res.HostFactor != 0 {
		fmt.Fprintf(w, "%-44s %16.6g ratio  (end-to-end timings = raw x this; samples below are raw)\n", "host_factor", res.HostFactor)
	}
	if res.SimDigest != "" {
		fmt.Fprintf(w, "%-44s %s\n", "sim_digest", res.SimDigest)
	}
	names = names[:0]
	for n := range res.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "samples %s", n)
		for _, v := range res.Samples[n] {
			fmt.Fprintf(w, " %.1f", v)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
