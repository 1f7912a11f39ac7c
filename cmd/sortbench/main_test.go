package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/machine"
	"repro/internal/sorts"
)

// sortbench drives the command body in-process on the given arguments.
func sortbench(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	if err != nil {
		fmt.Fprintln(&errb, "sortbench:", err)
	}
	return out.String(), errb.String(), err
}

// TestCLIEveryVariant runs every algorithm × repro.Models(algorithm)
// pair, plus the sequential baseline, through the CLI: a hole in the
// program table (a model Models advertises that no program backs) fails
// here even if no other test names that pair.
func TestCLIEveryVariant(t *testing.T) {
	type pair struct {
		algo  repro.Algorithm
		model repro.Model
		procs int
	}
	pairs := []pair{{repro.Radix, repro.Seq, 1}}
	for _, a := range []repro.Algorithm{repro.Radix, repro.Sample, repro.Psrs} {
		for _, m := range repro.Models(a) {
			pairs = append(pairs, pair{a, m, 8})
		}
	}
	if len(pairs) != 14 {
		t.Errorf("program table lists %d variants, want 14", len(pairs))
	}
	for _, pr := range pairs {
		stdout, stderr, err := sortbench("-algo", string(pr.algo), "-model", string(pr.model),
			"-n", "65536", "-procs", fmt.Sprint(pr.procs))
		if err != nil {
			t.Errorf("%s/%s: %v\n%s", pr.algo, pr.model, err, stderr)
			continue
		}
		if !strings.Contains(stdout, "verified sorted: true") {
			t.Errorf("%s/%s: no verified result in output:\n%s", pr.algo, pr.model, stdout)
		}
	}
}

// TestCLITraceAndMetrics: -trace and -metrics write a Chrome trace and
// the flat metrics map of the run, and the metrics' time_ns is the
// simulated time repro.Run reports for the same experiment.
func TestCLITraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	stdout, stderr, err := sortbench("-algo", "radix", "-model", "mpi", "-n", "16384", "-procs", "4",
		"-trace", tracePath, "-metrics", metricsPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{"trace: wrote " + tracePath, "metrics: wrote " + metricsPath} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, tracePath), &chrome); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tids := map[int]bool{}
	spans := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			spans++
			tids[ev.Tid] = true
		}
	}
	if spans == 0 || len(tids) != 4 {
		t.Errorf("trace holds %d spans on %d threads, want spans on all 4 processors", spans, len(tids))
	}

	var metrics map[string]float64
	if err := json.Unmarshal(readFile(t, metricsPath), &metrics); err != nil {
		t.Fatalf("metrics are not JSON: %v", err)
	}
	e, _, err := repro.Request{Algorithm: "radix", Model: "mpi", N: 16384, Procs: 4, Trace: true}.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	out, err := repro.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := metrics["time_ns"]; !ok || got != out.TimeNs {
		t.Errorf("metrics time_ns = %v (present %v), repro.Run TimeNs = %v", got, ok, out.TimeNs)
	}
	if metrics["procs"] != 4 {
		t.Errorf("metrics procs = %v, want 4", metrics["procs"])
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCLIMachineFailure: a simulated processor that panics fails the
// command with an error naming it, in the single-run and the batch
// modes, instead of killing the process.
func TestCLIMachineFailure(t *testing.T) {
	sorts.SetCorruptPSRSBoundaryForTest(func(proc, _ int, _ []int64) {
		if proc == 2 {
			panic("processor 2 lost its boundaries")
		}
	})
	defer sorts.SetCorruptPSRSBoundaryForTest(nil)
	for _, mode := range [][]string{nil, {"-sweep", "flatmem"}} {
		args := append([]string{"-algo", "psrs", "-model", "mpi", "-n", "8192", "-procs", "4"}, mode...)
		stdout, _, err := sortbench(args...)
		var pp *machine.ProcPanic
		if !errors.As(err, &pp) || pp.Proc != 2 || stdout != "" {
			t.Errorf("%v: err %v, stdout %q; want processor 2's panic and no output", mode, err, stdout)
		}
	}
}

// TestCLIRejectsBeforeRunning: what Request.Experiment refuses — a name
// it cannot parse, anything Experiment.Validate lists — and a flag
// combination no mode accepts fail with that message, not a late error
// out of key generation or machine.New, and before the profile
// files exist: a rejected command line used to leave a truncated CPU
// profile and an empty heap profile behind.
func TestCLIRejectsBeforeRunning(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-radix", "20"}, "RadixBits must be in [1,16], got 20"},
		{[]string{"-model", "mpi", "-procs", "12"}, "hypercube router count 3 is not a power of two"},
		{[]string{"-model", "ccsas", "-procs", "12"}, "hypercube router count 3 is not a power of two"},
		{[]string{"-model", "seq", "-procs", "4"}, "radix/seq runs on 1 processor, got 4"},
		{[]string{"-algo", "sample", "-model", "ccsas-new"}, "no program for algorithm"},
		{[]string{"-algo", "bogo"}, `unknown algorithm "bogo"`},
		{[]string{"-dist", "weird"}, "weird"},
		{[]string{"-topo", "moebius"}, `unknown topology "moebius"`},
		{[]string{"-seeds", "3", "-perproc"}, "-seeds is incompatible"},
		{[]string{"-predict", "-seeds", "3"}, "-predict is incompatible"},
		{[]string{"-predict", "-algo", "sample"}, "covers radix sort only"},
		{[]string{"-predict", "-paranoid"}, "-predict without -validate simulates nothing"},
		{[]string{"-predict", "-paranoid-sample", "13"}, "-predict without -validate simulates nothing"},
		{[]string{"-validate"}, "-validate needs -predict"},
		{[]string{"-sweep", "radix", "-seeds", "3"}, "-sweep is incompatible"},
		{[]string{"-sweep", "radix", "-predict"}, "-sweep is incompatible"},
		{[]string{"-sweep", "flatmem", "-perproc"}, "-sweep is incompatible"},
		{[]string{"-j", "0"}, "-j must be >= 1"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tc.args...)
		stdout, stderr, err := sortbench(args...)
		if err == nil || stdout != "" {
			t.Errorf("sortbench %v: err %v, stdout %q; want a failure and no run", args, err, stdout)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("sortbench %v: stderr %q, want it to contain %q", args, stderr, tc.want)
		}
		for _, path := range []string{cpu, mem} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("sortbench %v: %s exists after a rejected command line (stat: %v)", args, path, err)
				os.Remove(path)
			}
		}
	}
}

// TestCLIPredict: -predict -validate prints, byte for byte, the two
// tables the former cmd/predict printed for the same cell (captured from
// its last commit) — one cell on a non-default interconnect, one on the
// unscaled machine — at any -j.
func TestCLIPredict(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-n", "65536", "-procs", "8", "-topo", "numa2"}, "predict_numa2.golden"},
		{[]string{"-n", "65536", "-procs", "8", "-full"}, "predict_full.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []string{"1", "4"} {
			args := append([]string{"-predict", "-validate", "-j", j}, tc.args...)
			stdout, stderr, err := sortbench(args...)
			if err != nil || stdout != string(want) {
				t.Errorf("sortbench %v: err %v\n%s--- stdout ---\n%s--- want (%s) ---\n%s", args, err, stderr, stdout, tc.golden, want)
			}
		}
	}
}

// TestCLIProfiles: -cpuprofile and -memprofile leave non-empty pprof
// files beside a normal run's output and after a failed run, and a
// profile path that cannot be created fails the command before anything
// is simulated.
func TestCLIProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stdout, stderr, err := sortbench("-n", "65536", "-procs", "8", "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil || !strings.Contains(stdout, "verified sorted: true") {
		t.Fatalf("profiled run: %v\n%s%s", err, stdout, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
	// A run that fails after the profiles started still stops them: the
	// error used to exit the process past the deferred stop.
	failed := filepath.Join(dir, "failed.pprof")
	if _, _, err := sortbench("-n", "4096", "-procs", "4", "-paranoid-sample", "-1", "-memprofile", failed); err == nil {
		t.Error("-paranoid-sample -1: exit 0, want the machine's rejection")
	}
	if fi, err := os.Stat(failed); err != nil || fi.Size() == 0 {
		t.Errorf("%s: missing or empty after a failed run (%v)", failed, err)
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		stdout, stderr, err := sortbench("-n", "65536", "-procs", "8", flag, filepath.Join(dir, "no-such-dir", "p.pprof"))
		if err == nil || !strings.Contains(stderr, flag) || stdout != "" {
			t.Errorf("%s to an unwritable path: err %v, stdout %q, stderr %q; want a failure naming the flag and no run",
				flag, err, stdout, stderr)
		}
	}
}

// TestCLISeedsSameExperiment: -seeds runs the experiment the single-run
// mode would, flag for flag. The ensemble used to rebuild it from loose
// arguments and lost -paranoid-sample, so a value the single run
// rejects printed a summary (and a valid one ran unchecked).
func TestCLISeedsSameExperiment(t *testing.T) {
	args := []string{"-n", "4096", "-procs", "4", "-paranoid-sample", "-1"}
	for _, mode := range [][]string{nil, {"-seeds", "2"}} {
		stdout, stderr, err := sortbench(append(args, mode...)...)
		if err == nil || !strings.Contains(stderr, "ParanoidSampleEvery must be non-negative") {
			t.Errorf("sortbench %v %v: err %v, stdout %q, stderr %q; want the machine's rejection of -paranoid-sample -1",
				args, mode, err, stdout, stderr)
		}
	}
	stdout, stderr, err := sortbench("-n", "4096", "-procs", "4", "-paranoid-sample", "13", "-seeds", "3")
	if err != nil || !strings.Contains(stdout, "Ensemble summary") {
		t.Errorf("sampled-paranoid ensemble: %v\n%s%s", err, stdout, stderr)
	}
}

// TestCLISweep: -sweep K prints, byte for byte, what the former cmd/sweep
// printed for -kind K on the same cell (captured from its last commit) —
// every kind on radix sort, and the ablations' model lists for sample
// sort on a non-default interconnect and for PSRS — at any -j.
func TestCLISweep(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		args   []string
		golden string
	}{
		{"radix", nil, "sweep_radix.golden"},
		{"bufdepth", nil, "sweep_bufdepth.golden"},
		{"flatmem", nil, "sweep_flatmem.golden"},
		{"nocontention", nil, "sweep_nocontention.golden"},
		{"flatmem", []string{"-algo", "sample", "-topo", "numa2"}, "sweep_flatmem_sample_numa2.golden"},
		{"nocontention", []string{"-algo", "psrs"}, "sweep_nocontention_psrs.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []string{"1", "4"} {
			args := append([]string{"-sweep", tc.kind, "-n", "4096", "-procs", "4", "-j", j}, tc.args...)
			stdout, stderr, err := sortbench(args...)
			if err != nil || stdout != string(want) {
				t.Errorf("sortbench %v: err %v\n%s--- stdout ---\n%s--- want (%s) ---\n%s", args, err, stderr, stdout, tc.golden, want)
			}
		}
	}
}

// TestCLISweepHonorsSharedFlags: a sweep runs around the one experiment
// the flags name, so -radix reaches the sweeps that do not sweep it and
// -paranoid-sample reaches the machine.
func TestCLISweepHonorsSharedFlags(t *testing.T) {
	r8, _, err := sortbench("-sweep", "bufdepth", "-n", "4096", "-procs", "4")
	if err != nil {
		t.Fatal(err)
	}
	r6, stderr, err := sortbench("-sweep", "bufdepth", "-n", "4096", "-procs", "4", "-radix", "6")
	if err != nil || r6 == r8 {
		t.Errorf("-sweep bufdepth -radix 6: err %v, same table as radix 8: %v\n%s%s", err, r6 == r8, r6, stderr)
	}
	if _, stderr, err := sortbench("-sweep", "flatmem", "-n", "4096", "-procs", "4", "-paranoid-sample", "-1"); err == nil ||
		!strings.Contains(stderr, "ParanoidSampleEvery must be non-negative") {
		t.Errorf("-sweep flatmem -paranoid-sample -1: err %v, stderr %q; want the machine's rejection", err, stderr)
	}
}

// TestCLIRejectsUnknownKind: a misspelled -sweep kind — like everything
// else the command line can get wrong before a sweep starts — fails
// before the profile files are created, not after leaving empty ones
// behind.
func TestCLIRejectsUnknownKind(t *testing.T) {
	cpu, mem := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "mem.pprof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sweep", "radixx", "-n", "4096", "-procs", "4"}, `unknown sweep kind "radixx"`},
		{[]string{"-sweep", "radix", "-n", "0"}, "N must be positive"},
		{[]string{"-sweep", "radix", "-model", "openmp"}, `unknown model "openmp"`},
		{[]string{"-sweep", "flatmem", "-algo", "sample", "-model", "ccsas-new"}, "no program for algorithm"},
		{[]string{"-sweep", "radix", "-j", "0"}, "-j must be >= 1"},
		{[]string{"-sweep", "radix", "stray"}, "unexpected arguments"},
	} {
		args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tc.args...)
		stdout, stderr, err := sortbench(args...)
		if err == nil || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("sortbench %v: err %v, stdout %q, stderr %q; want a failure containing %q", args, err, stdout, stderr, tc.want)
		}
		for _, path := range []string{cpu, mem} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("sortbench %v: %s exists after a rejected command line (stat: %v)", args, path, err)
				os.Remove(path)
			}
		}
	}
}

// TestCLIFailedSweepKeepsProfiles: a sweep that fails after the profiles
// started (here every cell of the flatmem ablation, whose machine refuses
// -paranoid-sample -1 when the batch is validated) still stops them —
// the error used to exit the process past the deferred stop, leaving a
// truncated CPU profile and an empty heap profile.
func TestCLIFailedSweepKeepsProfiles(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	stdout, stderr, err := sortbench("-sweep", "flatmem", "-n", "4096", "-procs", "12", "-topo", "torus",
		"-paranoid-sample", "-1", "-memprofile", mem)
	if err == nil || !strings.Contains(stderr, "ParanoidSampleEvery must be non-negative") || stdout != "" {
		t.Fatalf("sweep with -paranoid-sample -1: err %v, stdout %q, stderr %q; want the machine's rejection", err, stdout, stderr)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("%s: missing or empty after a failed sweep (%v)", mem, err)
	}
}
