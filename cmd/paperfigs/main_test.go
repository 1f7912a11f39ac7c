package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paperfigs_tiny.golden from current output")

// tinyArgs is the reduced grid the golden file pins: every figure and
// table on the 1M class, 4/8 processors, a two-point radix sweep.
func tinyArgs(j string) []string {
	return []string{
		"-exp", "all",
		"-sizes", "1M",
		"-procs", "4,8",
		"-radixes", "7,8",
		"-seed", "0",
		"-j", j,
	}
}

// runTiny invokes the command body in-process and returns its stdout.
func runTiny(t *testing.T, j string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(tinyArgs(j), &stdout, &stderr); err != nil {
		t.Fatalf("paperfigs %v: %v\nstderr:\n%s", tinyArgs(j), err, stderr.String())
	}
	return stdout.Bytes()
}

// TestGoldenTinyGrid pins the full figure/table output of the tiny grid
// against testdata/paperfigs_tiny.golden, and proves stdout is
// byte-identical at -j 1 and -j 8 (deterministic gather order).
// Refresh the golden with: go test ./cmd/paperfigs -run Golden -update
func TestGoldenTinyGrid(t *testing.T) {
	golden := filepath.Join("testdata", "paperfigs_tiny.golden")
	got1 := runTiny(t, "1")
	got8 := runTiny(t, "8")
	if !bytes.Equal(got1, got8) {
		t.Fatalf("stdout differs between -j 1 (%d bytes) and -j 8 (%d bytes)", len(got1), len(got8))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got1))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got1, want) {
		t.Errorf("output differs from %s (%d bytes got, %d want); rerun with -update if the change is intended\n--- got ---\n%s",
			golden, len(got1), len(want), diffHead(got1, want))
	}
}

// diffHead returns the first few lines around the first differing byte,
// so a golden mismatch is actionable without dumping megabytes.
func diffHead(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(got) {
		hi = len(got)
	}
	return string(got[lo:hi])
}

// TestFigTopoDeterministic proves the beyond-paper topology grid keeps
// the same determinism contract as the paper figures: `-exp figtopo` on
// a tiny grid is byte-identical at -j 1 and -j 4, and renders one
// speedup figure per registered interconnect kind.
func TestFigTopoDeterministic(t *testing.T) {
	runTopo := func(j string) []byte {
		t.Helper()
		args := []string{"-exp", "figtopo", "-sizes", "1M", "-procs", "4,8", "-seed", "0", "-j", j}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("paperfigs %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		return stdout.Bytes()
	}
	got1 := runTopo("1")
	got4 := runTopo("4")
	if !bytes.Equal(got1, got4) {
		t.Fatalf("figtopo stdout differs between -j 1 (%d bytes) and -j 4 (%d bytes)\n%s",
			len(got1), len(got4), diffHead(got1, got4))
	}
	for _, kind := range []string{"hypercube", "fattree", "torus", "dragonfly", "numa2"} {
		if !bytes.Contains(got1, []byte("Figure T ("+kind+")")) {
			t.Errorf("figtopo output missing figure for %q", kind)
		}
	}
}

// TestRunRejectsBadFlags covers the error paths of the in-process
// entrypoint: unknown experiment, bad -j, stray arguments, bad lists.
// None of them may leave a profile file behind (the profile used to
// start before the checks, so `-exp fig99 -cpuprofile x` truncated x).
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-j", "0"},
		{"stray"},
		{"-sizes", "3M"},
		{"-procs", "0"},
		{"-radixes", "x"},
		{"-radixes", "7,7"},
		{"-procs", "16,16"},
		{"-sizes", "1M,1M"},
	} {
		if err := run(append([]string{"-cpuprofile", cpu}, args...), &out, &out); err == nil {
			t.Errorf("run(%v) = nil error, want failure", args)
		}
		if _, err := os.Stat(cpu); !os.IsNotExist(err) {
			t.Errorf("run(%v): %s exists after a rejected command line (stat: %v)", args, cpu, err)
			os.Remove(cpu)
		}
	}
}
