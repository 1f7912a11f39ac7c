package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the sweep command, as
// cmd/sortbench's does: with SWEEP_BE_MAIN set it runs main() on its
// arguments, so the tests drive the real CLI as a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_BE_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func sweep(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_BE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
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

// TestCLIRejectsUnknownKind: a misspelled -kind fails before the profile
// files are created, not after leaving empty ones behind.
func TestCLIRejectsUnknownKind(t *testing.T) {
	cpu, mem := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "mem.pprof")
	stdout, stderr, err := sweep("-kind", "radixx", "-n", "4096", "-procs", "4", "-cpuprofile", cpu, "-memprofile", mem)
	if err == nil || !strings.Contains(stderr, `unknown sweep kind "radixx"`) || stdout != "" {
		t.Errorf("sweep -kind radixx: err %v, stdout %q, stderr %q; want a failure naming the kind", err, stdout, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after a rejected -kind (stat: %v)", path, err)
		}
	}
}
