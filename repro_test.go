package repro

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/sorts"
	"repro/internal/topology"
)

// run is a test helper executing one experiment.
func runExp(t *testing.T, e Experiment) *Outcome {
	t.Helper()
	out, err := Run(e)
	if err != nil {
		t.Fatalf("Run(%+v): %v", e, err)
	}
	if !out.Verified {
		t.Fatalf("Run(%+v): unverified outcome", e)
	}
	return out
}

// TestRunCellsCombinations: every algorithm × model pair executes as one
// batch, and each cell comes back with a time and one breakdown per
// processor; Run verifies each pair's output on the way, and says so on
// the Outcome.
func TestRunCellsCombinations(t *testing.T) {
	var exps []Experiment
	for _, alg := range []Algorithm{Radix, Sample, Psrs} {
		for _, mo := range Models(alg) {
			exps = append(exps, Experiment{Algorithm: alg, Model: mo, N: 1 << 13, Procs: 8, Radix: 8})
		}
	}
	cells, err := NewHarness(Options{}).RunCells(exps)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		if cells[i].TimeNs <= 0 || len(cells[i].PerProc) != e.Procs {
			t.Errorf("%s/%s: simulated time %v, %d breakdowns", e.Algorithm, e.Model, cells[i].TimeNs, len(cells[i].PerProc))
		}
		if out := runExp(t, e); out.TimeNs != cells[i].TimeNs {
			t.Errorf("%s/%s: Run says %v ns, the batch %v", e.Algorithm, e.Model, out.TimeNs, cells[i].TimeNs)
		}
	}
}

// TestOutcomeSurvivesLaterRuns: an Outcome owns its sorted keys. Run
// hands the machine's slabs back to the process-wide arena before it
// returns, and later cells of the same shape take them over; the first
// Outcome's output must still be its own input, sorted.
func TestOutcomeSurvivesLaterRuns(t *testing.T) {
	for _, e := range []Experiment{
		{Algorithm: Radix, Model: SHMEM, N: 1 << 14, Procs: 4, Radix: 8, Seed: 1},
		{Algorithm: Radix, Model: CCSAS, N: 1 << 14, Procs: 4, Radix: 8, Seed: 1},
		{Algorithm: Sample, Model: MPI, N: 1 << 14, Procs: 4, Radix: 8, Seed: 1},
		{Algorithm: Psrs, Model: CCSAS, N: 1 << 14, Procs: 4, Radix: 8, Seed: 1},
		{Algorithm: Radix, Model: Seq, N: 1 << 14, Procs: 1, Radix: 8, Seed: 1},
	} {
		first := runExp(t, e)
		for _, seed := range []uint64{2, 3} {
			later := e
			later.Seed = seed
			runExp(t, later)
		}
		in, err := keys.Generate(e.Dist, keys.GenConfig{N: e.N, Procs: e.Procs, RadixBits: e.Radix, Seed: e.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifySorted(in, first.Result.Sorted); err != nil {
			t.Errorf("%s: output after two later runs: %v", e.Label(), err)
		}
	}
}

// TestRunReleasesOnFailure: a Run whose output fails verification still
// hands its machine's slabs back, so a failing cell leaks no memory.
func TestRunReleasesOnFailure(t *testing.T) {
	sorts.SetCorruptPSRSBoundaryForTest(func(proc, _ int, b []int64) {
		if proc == 0 && len(b) >= 3 {
			b[1] = (b[1] + b[2] + 1) / 2 // keys leak into the next destination
		}
	})
	defer sorts.SetCorruptPSRSBoundaryForTest(nil)
	before := machine.ArenaStats().InUse
	if _, err := Run(Experiment{Algorithm: Psrs, Model: MPI, N: 1 << 13, Procs: 4, Radix: 8}); err == nil {
		t.Fatal("a corrupted PSRS run verified")
	}
	if after := machine.ArenaStats().InUse; after != before {
		t.Errorf("%d slab bytes in use after the failed run, want %d", after, before)
	}
}

// TestRunReturnsMachineFailures: a processor that panics inside a cell
// fails Run and RunCells with an error, not a panic — one that names the
// experiment and still reaches the machine's *ProcPanic for the
// lowest-numbered failed processor — and the failed run's slabs go back
// to the arena.
func TestRunReturnsMachineFailures(t *testing.T) {
	sorts.SetCorruptPSRSBoundaryForTest(func(proc, _ int, _ []int64) {
		if proc >= 2 {
			panic(fmt.Sprintf("processor %d lost its boundaries", proc))
		}
	})
	defer sorts.SetCorruptPSRSBoundaryForTest(nil)
	e := Experiment{Algorithm: Psrs, Model: MPI, N: 1 << 13, Procs: 4, Radix: 8}
	before := machine.ArenaStats().InUse
	_, err := Run(e)
	var pp *machine.ProcPanic
	if !errors.As(err, &pp) || pp.Proc != 2 || !strings.Contains(err.Error(), e.Label()) {
		t.Fatalf("Run returned %v, want processor 2's panic under the label %q", err, e.Label())
	}
	if !strings.Contains(err.Error(), "processor 2 lost its boundaries") {
		t.Errorf("Run's error %q lost the panic value", err)
	}
	if after := machine.ArenaStats().InUse; after != before {
		t.Errorf("%d slab bytes in use after the failed run, want %d", after, before)
	}
	for _, par := range []int{1, 4} {
		_, cerr := NewHarness(Options{Parallelism: par}).RunCells([]Experiment{e, e})
		if cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("par=%d: RunCells returned %v, want Run's error %v", par, cerr, err)
		}
	}
	if after := machine.ArenaStats().InUse; after != before {
		t.Errorf("%d slab bytes in use after the failed cells, want %d", after, before)
	}
}

func TestRunSequentialBaseline(t *testing.T) {
	out := runExp(t, Experiment{Algorithm: Radix, Model: Seq, N: 1 << 13, Procs: 1})
	if out.TimeNs <= 0 {
		t.Error("baseline has no time")
	}
	if _, err := Run(Experiment{Algorithm: Radix, Model: Seq, N: 1 << 13, Procs: 8}); err == nil {
		t.Error("sequential baseline with 8 procs accepted")
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Experiment{
		{Algorithm: Radix, Model: SHMEM, N: 0, Procs: 8},
		{Algorithm: Radix, Model: SHMEM, N: 100, Procs: 0},
		{Algorithm: "bogus", Model: SHMEM, N: 100, Procs: 8},
		{Algorithm: Sample, Model: CCSASNew, N: 100, Procs: 8},           // no buffered sample variant
		{Algorithm: Psrs, Model: CCSASNew, N: 100, Procs: 8},             // no buffered PSRS variant either
		{Algorithm: Radix, Model: SHMEM, N: 100, Procs: 8, Topo: "mesh"}, // unknown interconnect
		{Algorithm: Radix, Model: Seq, N: 100, Procs: 2},                 // the baseline runs on one
		{Algorithm: Radix, Model: CCSASNew, N: 100, Procs: 12},           // 3 hypercube routers
	}
	for _, e := range bad {
		if _, err := Run(e); err == nil {
			t.Errorf("accepted invalid experiment %+v", e)
		}
	}
}

// TestExperimentValidate walks every shape Validate rejects — each with
// the message a front end will show — and checks that Run refuses the
// same experiments with the same error before doing any work.
func TestExperimentValidate(t *testing.T) {
	ok := Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4}
	cases := []struct {
		name string
		edit func(*Experiment)
		want string // "" = valid
	}{
		{"baseline", func(*Experiment) {}, ""},
		{"radix default", func(e *Experiment) { e.Radix = 0 }, ""},
		{"radix max", func(e *Experiment) { e.Radix = keys.MaxRadixBits }, ""},
		{"radix 17", func(e *Experiment) { e.Radix = 17 }, "RadixBits must be in [1,16], got 17"},
		{"radix 24", func(e *Experiment) { e.Radix = 24 }, "RadixBits must be in [1,16], got 24"},
		{"radix negative", func(e *Experiment) { e.Radix = -2 }, "RadixBits must be in"},
		{"zero n", func(e *Experiment) { e.N = 0 }, "N must be positive"},
		{"zero procs", func(e *Experiment) { e.Procs = 0 }, "Procs must be positive"},
		{"negative procs", func(e *Experiment) { e.Model, e.Procs = CCSAS, -4 }, "Procs must be positive"},
		{"seq", func(e *Experiment) { e.Model, e.Procs = Seq, 1 }, ""},
		{"seq procs 4", func(e *Experiment) { e.Model = Seq }, "repro: radix/seq runs on 1 processor, got 4"},
		{"seq sample", func(e *Experiment) { e.Algorithm, e.Model, e.Procs = Sample, Seq, 1 }, "no program"},
		{"ccsas procs 6", func(e *Experiment) { e.Model, e.Procs = CCSAS, 6 }, ""},
		{"ccsas procs 6 fattree", func(e *Experiment) { e.Model, e.Procs, e.Topo = CCSAS, 6, "fattree" }, ""},
		{"ccsas-new procs 12", func(e *Experiment) { e.Model, e.Procs = CCSASNew, 12 }, "hypercube router count 3 is not a power of two"},
		{"ccsas-new procs 12 torus", func(e *Experiment) { e.Model, e.Procs, e.Topo = CCSASNew, 12, "torus" }, ""},
		{"sample ccsas procs 6 fattree", func(e *Experiment) { e.Algorithm, e.Model, e.Procs, e.Topo = Sample, CCSAS, 6, "fattree" }, ""},
		{"psrs ccsas procs 6 fattree", func(e *Experiment) { e.Algorithm, e.Model, e.Procs, e.Topo = Psrs, CCSAS, 6, "fattree" }, ""},
		{"psrs ccsas procs 3", func(e *Experiment) { e.Algorithm, e.Model, e.Procs = Psrs, CCSAS, 3 }, "processors (3) not a multiple of procs per node (2)"},
		{"mpi procs 6", func(e *Experiment) { e.Model, e.Procs = MPI, 6 }, ""},
		{"mpi procs 3", func(e *Experiment) { e.Model, e.Procs = MPI, 3 }, "processors (3) not a multiple of procs per node (2)"},
		{"mpi procs 12", func(e *Experiment) { e.Model, e.Procs = MPI, 12 }, "hypercube router count 3 is not a power of two"},
		{"shmem procs 12 torus", func(e *Experiment) { e.Procs, e.Topo = 12, "torus" }, ""},
		{"sample ccsas-new", func(e *Experiment) { e.Algorithm, e.Model = Sample, CCSASNew }, "no program"},
		{"unknown algorithm", func(e *Experiment) { e.Algorithm = "bogo" }, "no program"},
		{"unknown model", func(e *Experiment) { e.Model = "openmp" }, "no program"},
		{"unknown topo", func(e *Experiment) { e.Topo = "moebius" }, `unknown kind "moebius"`},
		{"paranoid sample negative", func(e *Experiment) { e.ParanoidSampleEvery = -1 }, "ParanoidSampleEvery must be non-negative, got -1"},
		{"sample size negative", func(e *Experiment) { e.SampleSize = -1 }, "AdvSamples must be in [0,2^20], got -1"},
		{"sample size huge", func(e *Experiment) { e.SampleSize = 1<<20 + 1 }, "AdvSamples must be in"},
	}
	for _, tc := range cases {
		e := ok
		tc.edit(&e)
		err := e.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		if _, rerr := Run(e); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Run = %v, want Validate's error %v", tc.name, rerr, err)
		}
	}
	// Every algorithm × model pair the table advertises validates.
	for _, alg := range []Algorithm{Radix, Sample, Psrs} {
		for _, mo := range Models(alg) {
			if err := (Experiment{Algorithm: alg, Model: mo, N: 64, Procs: 8}).Validate(); err != nil {
				t.Errorf("%s/%s: %v", alg, mo, err)
			}
		}
	}
}

// TestValidateAgreesWithLayers: over every program × interconnect × 1–70
// processors, Validate accepts an experiment exactly when the key
// generator and the machine accept the configs Run hands them and the
// program's row states no other processor count (only the sequential
// baseline's one), and Run refuses every rejected
// experiment with Validate's error word for word. The oracle is the
// layers' validators, not machine.New, so the sweep stays sub-second.
func TestValidateAgreesWithLayers(t *testing.T) {
	disagree := 0
	for _, v := range sorts.Variants() {
		for _, topo := range append([]string{""}, topology.Kinds()...) {
			for procs := 1; procs <= 70; procs++ {
				e := Experiment{Algorithm: Algorithm(v.Algorithm), Model: Model(v.Model), N: 1 << 12, Procs: procs, Topo: topo}
				gen := keys.GenConfig{N: e.N, Procs: procs, RadixBits: 8}
				mc := MachineConfigFor(e)
				accept := gen.Validate() == nil && mc.Validate() == nil && (v.Procs == 0 || v.Procs == procs)
				err := e.Validate()
				if (err == nil) != accept {
					if disagree++; disagree <= 5 {
						t.Errorf("%s: Validate = %v, the layers accept: %v", e.Label(), err, accept)
					}
					continue
				}
				if err == nil {
					continue
				}
				if _, rerr := Run(e); rerr == nil || rerr.Error() != err.Error() {
					t.Errorf("%s: Run = %v, want Validate's error %v", e.Label(), rerr, err)
				}
			}
		}
	}
	if disagree > 0 {
		t.Errorf("%d experiments where Validate and the layers disagree", disagree)
	}
}

// TestCCSASSortsAnyMachine: all four CC-SAS programs — the radix sorts
// through the prefix tree, sample sort and PSRS — validate, run and
// verify on machines that are not a power of two.
func TestCCSASSortsAnyMachine(t *testing.T) {
	for _, prog := range []struct {
		alg   Algorithm
		model Model
	}{{Radix, CCSAS}, {Radix, CCSASNew}, {Sample, CCSAS}, {Psrs, CCSAS}} {
		for _, topo := range []string{"fattree", "torus", "numa2", "dragonfly"} {
			for _, procs := range []int{6, 10, 12, 24, 48} {
				runExp(t, Experiment{Algorithm: prog.alg, Model: prog.model, N: 1 << 12, Procs: procs, Topo: topo})
			}
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if a, err := ParseAlgorithm("RADIX"); err != nil || a != Radix {
		t.Errorf("ParseAlgorithm: %v %v", a, err)
	}
	if _, err := ParseAlgorithm("quick"); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if m, err := ParseModel("ccsas-new"); err != nil || m != CCSASNew {
		t.Errorf("ParseModel: %v %v", m, err)
	}
	if _, err := ParseModel("pthread"); err == nil {
		t.Error("accepted unknown model")
	}
	if s, err := SizeByLabel("64m"); err != nil || s.Label != "64M" {
		t.Errorf("SizeByLabel: %v %v", s, err)
	}
	if _, err := SizeByLabel("2G"); err == nil {
		t.Error("accepted unknown size")
	}
}

func TestSizeClassScaling(t *testing.T) {
	for _, s := range SizeClasses {
		if s.PaperN/s.ScaledN != 16 {
			t.Errorf("%s: paper/scaled = %d, want the machine scale factor 16",
				s.Label, s.PaperN/s.ScaledN)
		}
	}
}

func TestMachineConfigPageSizePolicy(t *testing.T) {
	small := MachineConfigFor(Experiment{N: SizeClasses[0].ScaledN, Procs: 16})
	big := MachineConfigFor(Experiment{N: SizeClasses[4].ScaledN, Procs: 16})
	if small.TLB.PageSize >= big.TLB.PageSize {
		t.Errorf("page sizes: small %d, big %d: the 256M class uses larger pages",
			small.TLB.PageSize, big.TLB.PageSize)
	}
	fullSmall := MachineConfigFor(Experiment{N: SizeClasses[0].PaperN, Procs: 16, FullSize: true})
	if fullSmall.TLB.PageSize != 64<<10 {
		t.Errorf("full-size page = %d, want 64K", fullSmall.TLB.PageSize)
	}
}

// TestParanoidMachineConfig pins how an experiment's (Paranoid,
// ParanoidSampleEvery) pair becomes the machine's one value: a sample
// period without Paranoid below 2 checks nothing, Paranoid alone checks
// every access, and a period above 1 samples whatever Paranoid says.
func TestParanoidMachineConfig(t *testing.T) {
	for _, tc := range []struct {
		paranoid bool
		every    int
		want     int
	}{
		{false, 0, 0}, {false, 1, 0},
		{true, 0, 1}, {true, 1, 1},
		{false, 13, 13}, {true, 13, 13},
	} {
		e := Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 12, Procs: 4,
			Paranoid: tc.paranoid, ParanoidSampleEvery: tc.every}
		cfg := MachineConfigFor(e)
		if cfg.ParanoidSampleEvery != tc.want {
			t.Errorf("(%v, %d): machine ParanoidSampleEvery = %d, want %d",
				tc.paranoid, tc.every, cfg.ParanoidSampleEvery, tc.want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("(%v, %d): %v", tc.paranoid, tc.every, err)
		}
	}
	for _, paranoid := range []bool{false, true} {
		cfg := MachineConfigFor(Experiment{N: 1 << 12, Procs: 4, Paranoid: paranoid, ParanoidSampleEvery: -1})
		const want = "ParanoidSampleEvery must be non-negative"
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("(%v, -1): Validate = %v, want an error containing %q", paranoid, err, want)
		}
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	e := Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 13, Procs: 8, Radix: 8}
	a := runExp(t, e)
	b := runExp(t, e)
	if a.TimeNs != b.TimeNs {
		t.Errorf("non-deterministic: %v vs %v", a.TimeNs, b.TimeNs)
	}
}

func TestSeedChangesKeysNotValidity(t *testing.T) {
	a := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 13, Procs: 8, Seed: 1})
	b := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 13, Procs: 8, Seed: 2})
	if a.TimeNs == b.TimeNs {
		t.Log("different seeds produced identical times (possible but unlikely)")
	}
}

// --- shape assertions: the paper's headline findings at test-scale ---

func TestShapeCCSASNewBeatsOriginalAtScale(t *testing.T) {
	size := SizeClasses[2] // 16M class
	orig := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 16})
	buf := runExp(t, Experiment{Algorithm: Radix, Model: CCSASNew, N: size.ScaledN, Procs: 16})
	shm := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 16})
	if !(shm.TimeNs < buf.TimeNs && buf.TimeNs < orig.TimeNs) {
		t.Errorf("want SHMEM (%v) < CC-SAS-NEW (%v) < CC-SAS (%v) at the 16M class",
			shm.TimeNs, buf.TimeNs, orig.TimeNs)
	}
}

func TestShapeOriginalCCSASWinsSmallest(t *testing.T) {
	// Paper Figure 3 / Table 3: plain CC-SAS is the best radix model for
	// the 1M class on larger processor counts, and CC-SAS-NEW is inferior
	// to the original there.
	size := SizeClasses[0]
	orig := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 32})
	buf := runExp(t, Experiment{Algorithm: Radix, Model: CCSASNew, N: size.ScaledN, Procs: 32})
	shm := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 32})
	if orig.TimeNs >= shm.TimeNs {
		t.Errorf("1M class: CC-SAS (%v) should beat SHMEM (%v)", orig.TimeNs, shm.TimeNs)
	}
	if orig.TimeNs >= buf.TimeNs {
		t.Errorf("1M class: original CC-SAS (%v) should beat CC-SAS-NEW (%v)", orig.TimeNs, buf.TimeNs)
	}
}

func TestShapeStagedVsDirectMPI(t *testing.T) {
	size := SizeClasses[1]
	direct := runExp(t, Experiment{Algorithm: Radix, Model: MPI, N: size.ScaledN, Procs: 16})
	staged := runExp(t, Experiment{Algorithm: Radix, Model: MPISGI, N: size.ScaledN, Procs: 16})
	if staged.TimeNs <= direct.TimeNs {
		t.Errorf("staged MPI (%v) should be slower than direct (%v)", staged.TimeNs, direct.TimeNs)
	}
	// The gap is smaller for sample sort (one communication phase).
	dS := runExp(t, Experiment{Algorithm: Sample, Model: MPI, N: size.ScaledN, Procs: 16})
	sS := runExp(t, Experiment{Algorithm: Sample, Model: MPISGI, N: size.ScaledN, Procs: 16})
	radixGap := staged.TimeNs / direct.TimeNs
	sampleGap := sS.TimeNs / dS.TimeNs
	if sampleGap >= radixGap {
		t.Errorf("sample engine gap (%v) should be smaller than radix gap (%v)", sampleGap, radixGap)
	}
}

func TestShapeSampleVsRadixCrossover(t *testing.T) {
	// Sample sort wins below ~64K keys per processor (scaled: 4K), radix
	// above (paper §4.4). Compare best-of-models at the 1M class (1K
	// keys/proc at 64P... use 16P: 4K/proc boundary; use the 64M class for
	// the radix side: 256K/proc at 16P).
	small := SizeClasses[0]
	// As in the paper's §4.4, each algorithm competes at its own best
	// combination of model and radix size.
	bestOf := func(alg Algorithm, n, procs int) float64 {
		best := -1.0
		for _, mo := range Models(alg) {
			if mo == MPISGI {
				continue
			}
			for _, r := range []int{8, 11} {
				out := runExp(t, Experiment{Algorithm: alg, Model: mo, N: n, Procs: procs, Radix: r})
				if best < 0 || out.TimeNs < best {
					best = out.TimeNs
				}
			}
		}
		return best
	}
	// 1M class on 32 procs: 2K keys/proc — sample territory (paper
	// Table 2: sample wins 1M at 32P and 64P; the scaled machine
	// compresses the margin, see EXPERIMENTS.md).
	radixSmall := bestOf(Radix, small.ScaledN, 32)
	sampleSmall := bestOf(Sample, small.ScaledN, 32)
	if sampleSmall >= radixSmall {
		t.Errorf("2K keys/proc: sample (%v) should beat radix (%v)", sampleSmall, radixSmall)
	}
	// 16M class on 16 procs: 64K keys/proc — radix territory.
	big := SizeClasses[2]
	radixBig := bestOf(Radix, big.ScaledN, 16)
	sampleBig := bestOf(Sample, big.ScaledN, 16)
	if radixBig >= sampleBig {
		t.Errorf("64K keys/proc: radix (%v) should beat sample (%v)", radixBig, sampleBig)
	}
}

func TestShapeLocalDistributionFastest(t *testing.T) {
	size := SizeClasses[1]
	gauss := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 16, Dist: keys.Gauss})
	local := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 16, Dist: keys.Local})
	if local.TimeNs >= gauss.TimeNs {
		t.Errorf("local distribution (%v) should beat gauss (%v)", local.TimeNs, gauss.TimeNs)
	}
}

func TestShapeSuperlinearSpeedupAtScale(t *testing.T) {
	// Cache+TLB capacity effects make large-data-set speedups superlinear
	// (paper §4.2). 64M class on 16 processors exceeds per-proc caches.
	size := SizeClasses[3]
	base := runExp(t, Experiment{Algorithm: Radix, Model: Seq, N: size.ScaledN, Procs: 1})
	par := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 64})
	speedup := base.TimeNs / par.TimeNs
	if speedup <= 64 {
		t.Errorf("64M class on 64P: speedup %v, want superlinear (> 64)", speedup)
	}
}

func TestAblationFlatMemoryRemovesModelGap(t *testing.T) {
	// With flat memory, the CC-SAS scattered-write penalty largely
	// disappears: the gap to SHMEM shrinks dramatically.
	size := SizeClasses[1]
	ccReal := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 16})
	shmReal := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 16})
	ccFlat := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 16, FlatMemory: true})
	shmFlat := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: size.ScaledN, Procs: 16, FlatMemory: true})
	realGap := ccReal.TimeNs / shmReal.TimeNs
	flatGap := ccFlat.TimeNs / shmFlat.TimeNs
	if flatGap >= realGap {
		t.Errorf("flat-memory ablation: gap %v should shrink below the real gap %v", flatGap, realGap)
	}
}

func TestAblationNoContention(t *testing.T) {
	size := SizeClasses[2]
	withC := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 16})
	without := runExp(t, Experiment{Algorithm: Radix, Model: CCSAS, N: size.ScaledN, Procs: 16, NoContention: true})
	if without.TimeNs >= withC.TimeNs {
		t.Errorf("no-contention ablation (%v) should be faster than contended (%v)",
			without.TimeNs, withC.TimeNs)
	}
}

func TestAblationMPIBufferDepth(t *testing.T) {
	// Deeper per-pair windows reduce the sender stalls (paper §4.2:
	// "using deeper buffers alleviates the problem").
	size := SizeClasses[1]
	shallow := runExp(t, Experiment{Algorithm: Radix, Model: MPI, N: size.ScaledN, Procs: 16, MPIBufDepth: 1})
	deep := runExp(t, Experiment{Algorithm: Radix, Model: MPI, N: size.ScaledN, Procs: 16, MPIBufDepth: 32})
	if deep.TimeNs > shallow.TimeNs {
		t.Errorf("deep windows (%v) should not be slower than 1-deep (%v)",
			deep.TimeNs, shallow.TimeNs)
	}
}

func TestFullSizeMachineSmoke(t *testing.T) {
	// The unscaled Origin2000 parameters drive the same programs.
	out := runExp(t, Experiment{
		Algorithm: Radix, Model: SHMEM, N: 1 << 16, Procs: 8, FullSize: true,
	})
	cfg := MachineConfigFor(out.Experiment)
	if cfg.Cache.Size != 4<<20 {
		t.Errorf("full-size cache = %d", cfg.Cache.Size)
	}
	// 64K keys on 8 full-size caches: everything fits, so remote traffic
	// is modest and LMem low.
	if out.TimeNs <= 0 {
		t.Error("no time")
	}
}

var updateFullSize = flag.Bool("update", false, "regenerate testdata/fullsize_digests.json")

const fullSizeDigestFile = "testdata/fullsize_digests.json"

// TestFullSizeDigests pins repro.Run on the unscaled Origin2000 bit for
// bit, one cell per library's fixed costs: the staged and the direct MPI,
// SHMEM, and CC-SAS, whose only software cost is its barriers.
// TestVariantDigests pins the ÷16 machine only. A digest is the sha256
// of the run's JSON (Go writes each float64 in the shortest form that
// reads back to the same bits). Run with -update only when a change of
// simulated behaviour is intended.
func TestFullSizeDigests(t *testing.T) {
	got := make(map[string]string)
	for _, e := range []Experiment{
		{Algorithm: Radix, Model: MPISGI},
		{Algorithm: Sample, Model: MPI},
		{Algorithm: Psrs, Model: SHMEM},
		{Algorithm: Radix, Model: CCSAS},
	} {
		e.N, e.Procs, e.FullSize = 1<<16, 8, true
		out := runExp(t, e)
		data, err := json.Marshal(struct {
			Model      string
			TimeNs     float64
			PerProc    []machine.ProcStats
			RecvCounts []int
		}{out.Result.Model, out.TimeNs, out.Result.Run.PerProc, out.Result.RecvCounts})
		if err != nil {
			t.Fatal(err)
		}
		got[out.Experiment.Label()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	if *updateFullSize {
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(fullSizeDigestFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fullSizeDigestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", fullSizeDigestFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test runs %d cells", fullSizeDigestFile, len(want), len(got))
	}
	for id, d := range got {
		if want[id] != d {
			t.Errorf("%s: simulated result moved: digest %s, committed %q", id, d[:16], want[id])
		}
	}
}

func TestPhaseBreakdownsExposedThroughOutcome(t *testing.T) {
	out := runExp(t, Experiment{Algorithm: Radix, Model: SHMEM, N: 1 << 14, Procs: 8})
	ps := out.Result.Run.PerProc[0]
	if len(ps.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	for _, name := range []string{"count", "permute", "transfer"} {
		if _, ok := ps.Phases[name]; !ok {
			t.Errorf("missing phase %q", name)
		}
	}
}

func TestOneMessagePerDestExperiment(t *testing.T) {
	out := runExp(t, Experiment{
		Algorithm: Radix, Model: MPI, N: 1 << 14, Procs: 8, MPIOneMessagePerDest: true,
	})
	if out.Result.Model != "mpi-NEW-onemsg" {
		t.Errorf("model label = %q", out.Result.Model)
	}
}

// TestVerifySorted drives the gate behind every Outcome.Verified
// directly: each way a broken sort can hand back the wrong keys must be
// refused, and the degenerate inputs accepted.
func TestVerifySorted(t *testing.T) {
	cases := []struct {
		name    string
		in, out []uint32
		wantErr string // "" = accepted
	}{
		{"empty", nil, nil, ""},
		{"single key", []uint32{7}, []uint32{7}, ""},
		{"sorted permutation with duplicates", []uint32{5, 1, 5, 0, 9}, []uint32{0, 1, 5, 5, 9}, ""},
		{"wrong length", []uint32{3, 1, 2}, []uint32{1, 2}, "length 2, want 3"},
		{"one descending pair", []uint32{1, 2, 3, 4}, []uint32{1, 3, 2, 4}, "not ascending at index 2"},
		{"key overwritten by its neighbour", []uint32{4, 1, 3, 2}, []uint32{1, 2, 2, 4}, "not a permutation"},
		{"single key replaced", []uint32{7}, []uint32{8}, "not a permutation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := verifySorted(c.in, c.out)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("verifySorted(%v, %v) = %v, want nil", c.in, c.out, err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("verifySorted(%v, %v) = %v, want an error containing %q", c.in, c.out, err, c.wantErr)
			}
		})
	}
}
