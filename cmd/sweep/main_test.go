package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweep drives the command body in-process on the given arguments.
func sweep(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	if err != nil {
		fmt.Fprintln(&errb, "sweep:", err)
	}
	return out.String(), errb.String(), err
}

// TestCLIEveryKind runs every -kind end to end at n=4096 on 4
// processors and checks the table it prints: its title names the
// algorithm actually swept, and it has one row per sweep point.
func TestCLIEveryKind(t *testing.T) {
	for _, tc := range []struct {
		kind, algo, title string
		rows              int
	}{
		{"radix", "radix", "Radix-size sweep: radix/shmem n=4096 procs=4", 7},
		{"bufdepth", "radix", "MPI window-depth ablation: radix n=4096 procs=4", 5},
		{"flatmem", "radix", "flatmem ablation: radix n=4096 procs=4 (all radix models)", 4},
		{"nocontention", "radix", "nocontention ablation: radix n=4096 procs=4 (all radix models)", 4},
		{"flatmem", "sample", "flatmem ablation: sample n=4096 procs=4 (all sample models)", 3},
		{"nocontention", "psrs", "nocontention ablation: psrs n=4096 procs=4 (all psrs models)", 3},
	} {
		stdout, stderr, err := sweep("-kind", tc.kind, "-algo", tc.algo, "-n", "4096", "-procs", "4")
		if err != nil {
			t.Errorf("sweep -kind %s -algo %s: %v\n%s", tc.kind, tc.algo, err, stderr)
			continue
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		// Title, rule, header, rule, then the rows.
		if lines[0] != tc.title || len(lines) != 4+tc.rows {
			t.Errorf("sweep -kind %s -algo %s: want title %q and %d rows, got:\n%s", tc.kind, tc.algo, tc.title, tc.rows, stdout)
		}
	}
}

// TestCLIRejectsUnknownKind: a misspelled -kind — like everything else
// the command line can get wrong before a sweep starts — fails before
// the profile files are created, not after leaving empty ones behind.
func TestCLIRejectsUnknownKind(t *testing.T) {
	cpu, mem := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "mem.pprof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "radixx", "-n", "4096", "-procs", "4"}, `unknown sweep kind "radixx"`},
		{[]string{"-n", "0"}, "N must be positive"},
		{[]string{"-model", "openmp"}, `unknown model "openmp"`},
		{[]string{"-algo", "sample", "-model", "ccsas-new"}, "no program for algorithm"},
		{[]string{"-j", "0"}, "-j must be >= 1"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tc.args...)
		stdout, stderr, err := sweep(args...)
		if err == nil || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("sweep %v: err %v, stdout %q, stderr %q; want a failure containing %q", args, err, stdout, stderr, tc.want)
		}
		for _, path := range []string{cpu, mem} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("sweep %v: %s exists after a rejected command line (stat: %v)", args, path, err)
				os.Remove(path)
			}
		}
	}
}

// TestCLIFailedSweepKeepsProfiles: a sweep that fails after the profiles
// started (here the flatmem ablation's CC-SAS cell on 12 processors)
// still stops them — the error used to exit the process past the
// deferred stop, leaving a truncated CPU profile and an empty heap
// profile.
func TestCLIFailedSweepKeepsProfiles(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	_, stderr, err := sweep("-kind", "flatmem", "-n", "4096", "-procs", "12", "-topo", "torus", "-memprofile", mem)
	if err == nil || !strings.Contains(stderr, "power-of-two") {
		t.Fatalf("sweep on 12 processors: err %v, stderr %q; want the CC-SAS cell's rejection", err, stderr)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("%s: missing or empty after a failed sweep (%v)", mem, err)
	}
}
