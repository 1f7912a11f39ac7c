package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestMain lets the test binary stand in for the sortbench command: with
// SORTBENCH_BE_MAIN set it runs main() on its arguments, so the tests
// below drive the real CLI — flag parsing, repro.Run, printing, exit
// status — as a subprocess without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("SORTBENCH_BE_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func sortbench(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SORTBENCH_BE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
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

// TestCLIRejectsBeforeRunning: what Experiment.Validate refuses exits
// non-zero with Validate's message, not a late error out of key
// generation or the prefix tree.
func TestCLIRejectsBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-radix", "20"}, "Radix must be in [1, 16] bits, got 20"},
		{[]string{"-model", "ccsas", "-procs", "12", "-topo", "fattree"}, "needs a power-of-two processor count"},
		{[]string{"-algo", "sample", "-model", "ccsas-new"}, "no program for algorithm"},
	} {
		_, stderr, err := sortbench(tc.args...)
		if err == nil {
			t.Errorf("sortbench %v: exit 0, want failure", tc.args)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("sortbench %v: stderr %q, want it to contain %q", tc.args, stderr, tc.want)
		}
	}
}

// TestCLIProfiles: -cpuprofile and -memprofile leave non-empty pprof
// files beside a normal run's output, and a profile path that cannot be
// created fails the command before anything is simulated.
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
