package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The hosts this benchmark runs on are small shared VMs. Sizing showed
// stretches of 5 to 30 minutes in which every workload ran 1.2 to 1.9
// times slower, CPU time inflating with wall time, while a pure ALU loop
// slowed far less: neighbours on the memory system. No estimator inside
// a run removes that, and it would drown any bound the driver accepts
// (0.25 at most). A random read-modify-write walk over arrays far larger
// than the caches slows along with the workloads, so every run times
// that walk beside its rounds, in a helper process that holds the
// arrays, and reports its bounded timings at nominal host speed:
//
//	raw time x (calNominalNs / the run's median walk step) ^ calDamping
//
// Through a noisy half hour (ten seeds per workload, walk step 19 to 35
// ns) the regression of log round time on log walk step had slope 0.82
// (stream-big), 0.74 (comm-small), 0.70 (paper-grid) and 1.00
// (simd-serve); with calDamping 0.75 the interquartile spread of
// round_ms over the ten runs fell from 34 / 23 / 16 / 31 % raw to
// 7.6 / 4.2 / 9.5 / 9.4 %. On a quiet host the factor is about 1 and
// adds a few percent of noise.
//
// The factor multiplies setup_s, round_ms, ns_per_access,
// cpu_ms_per_cell and the four serving metrics -compare bounds. It is
// printed as host_factor (a traced run reports bench.host_factor), with
// the raw per-round samples and walk samples beside it; every other
// number is raw.

const (
	// calNominalNs is the walk's time per step on the quiet sizing host.
	// Only its constancy matters: on another host every timing is scaled
	// by one more constant factor, which no comparison sees.
	calNominalNs = 19.0
	// calDamping is the share of the walk's slowdown (in logarithms) that
	// the workloads follow; see the measurements above.
	calDamping = 0.75
	calWords   = 1 << 25 // 128 MB of uint32 per walker, far beyond L2 and this VM's share of L3
	calSteps   = 4 << 20 // about 80 ms per sample
	// calBurst is how many samples one sampling point takes: the walk is
	// itself hit by short bursts, so the factor is a median of many.
	calBurst = 3
)

// calibrateMain is the helper process: it allocates and touches one
// array per host core, then times one walk for every line on its
// standard input and prints the nanoseconds per step. It exits when its
// input closes, so it never outlives the bench.
func calibrateMain(nproc int, stdin io.Reader, stdout io.Writer) int {
	arrays := make([][]uint32, nproc)
	for g := range arrays {
		arrays[g] = make([]uint32, calWords)
		for i := range arrays[g] {
			arrays[g][i] = uint32(i)
		}
	}
	seeds := make([]uint64, nproc)
	sc := bufio.NewScanner(stdin)
	fmt.Fprintln(stdout, "ready")
	for sc.Scan() {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := range arrays {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				a, x := arrays[g], seeds[g]+uint64(g)+1
				for i := 0; i < calSteps; i++ {
					x = lcg(x)
					a[(x>>20)&(calWords-1)] += uint32(i)
				}
				seeds[g] = x
			}(g)
		}
		wg.Wait()
		fmt.Fprintln(stdout, float64(time.Since(t0))/calSteps)
	}
	return 0
}

// calibrator drives the helper process from the measuring one.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64 // ns per step
}

// startCalibrator starts the helper and waits until its arrays are
// resident. A nil calibrator (-quick) samples nothing and has factor 1.
func startCalibrator(ctx *runCtx) (*calibrator, error) {
	if ctx.quick {
		return nil, nil
	}
	cmd := exec.Command(ctx.exe, "-calibrate")
	cmd.Dir = ctx.root
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	if line, err := c.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
		c.stop()
		return nil, fmt.Errorf("calibration helper did not start: %q %v", line, err)
	}
	return c, nil
}

// sample times calBurst walks now.
func (c *calibrator) sample() error {
	if c == nil {
		return nil
	}
	for i := 0; i < calBurst; i++ {
		if _, err := io.WriteString(c.in, "go\n"); err != nil {
			return fmt.Errorf("calibration helper: %w", err)
		}
		line, err := c.out.ReadString('\n')
		if err != nil {
			return fmt.Errorf("calibration helper: %w", err)
		}
		ns, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil || ns <= 0 {
			return fmt.Errorf("calibration helper answered %q", line)
		}
		c.samples = append(c.samples, ns)
	}
	return nil
}

// factor is what a raw timing of this run is multiplied by.
func (c *calibrator) factor() float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	return math.Pow(calNominalNs/median(c.samples), calDamping)
}

// nsPerStep returns the samples so far.
func (c *calibrator) nsPerStep() []float64 {
	if c == nil {
		return nil
	}
	return c.samples
}

// stop ends the helper and waits for it.
func (c *calibrator) stop() {
	if c == nil {
		return
	}
	c.in.Close()
	c.cmd.Wait()
}
