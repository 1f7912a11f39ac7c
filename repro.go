// Package repro is a reproduction of "Parallel Sorting on Cache-coherent
// DSM Multiprocessors" (Shan & Singh, SC 1999): parallel radix sort and
// sample sort under the CC-SAS, MPI and SHMEM programming models,
// executed on a deterministic simulator of an SGI Origin2000-class
// CC-NUMA machine.
//
// The public API has two layers:
//
//   - Run executes one Experiment (algorithm × model × size × processors
//     × radix × key distribution) and returns a verified, timed Outcome.
//     A Request is that tuple as command lines and simd's JSON spell it;
//     Request.Experiment is the one front door from names to an
//     Experiment.
//
//   - Harness drives the paper's full evaluation: Table1 through Table3
//     and Figure1 through Figure10 regenerate the same rows and series
//     the paper reports (on the scaled machine by default; see DESIGN.md
//     for the scaling argument). Harness.RunCells is the engine under
//     all of them and the one way to run any other batch of experiments.
package repro

import (
	"fmt"
	"strings"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/shmem"
	"repro/internal/sorts"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Algorithm selects the sorting algorithm.
type Algorithm string

const (
	// Radix is the parallel radix sort.
	Radix Algorithm = "radix"
	// Sample is the parallel sample sort (splitter-based, group splitter
	// election, second local radix sort).
	Sample Algorithm = "sample"
	// Psrs is Parallel Sorting by Regular Sampling: root-side pivot
	// gather/broadcast, partition exchange, local multiway merge.
	Psrs Algorithm = "psrs"
)

// Model selects the programming model / implementation variant.
type Model string

const (
	// Seq is the sequential baseline (radix only).
	Seq Model = "seq"
	// CCSAS is the load-store shared-address-space program (for radix,
	// the original SPLASH-2 scattered-write version).
	CCSAS Model = "ccsas"
	// CCSASNew is the paper's improved, locally-buffered CC-SAS radix.
	CCSASNew Model = "ccsas-new"
	// MPI is message passing with the authors' direct-copy library (NEW).
	MPI Model = "mpi"
	// MPISGI is message passing with the vendor-style staged-copy
	// library.
	MPISGI Model = "mpi-sgi"
	// SHMEM is the one-sided put/get model.
	SHMEM Model = "shmem"
)

// Models lists the parallel models applicable to each algorithm, derived
// from the sorts package's program table (sample sort and PSRS have no
// buffered CC-SAS variant; the sequential baseline is not parallel).
func Models(a Algorithm) []Model {
	var out []Model
	for _, v := range sorts.Variants() {
		if v.Algorithm == string(a) && v.Model != string(Seq) {
			out = append(out, Model(v.Model))
		}
	}
	return out
}

// Validate reports whether the experiment can run at all, so front ends
// can reject a bad one (simd with 400) before any simulation starts. It
// is Run's own setup stopped short of generating keys: whatever Validate
// accepts, every layer accepts the config Run hands it.
func (e Experiment) Validate() error {
	_, err := e.resolve()
	return err
}

// setup is what Run hands the layers for one experiment: the program,
// and each layer's config exactly as that layer receives it.
type setup struct {
	prog    sorts.Variant
	keys    keys.GenConfig
	machine machine.Config
	sort    sorts.Config
}

// resolve applies the sorts' radix default to e, looks its program up,
// builds every layer's config and checks each with its owner's
// validator: the key generator's, the program row's processor count
// (sorts.Variant.Procs, the sequential baseline's one) and the machine's.
// It states no rule of its own. Validate, Run and Predict all start here.
func (e *Experiment) resolve() (setup, error) {
	if e.Radix == 0 {
		e.Radix = sorts.DefaultConfig().Radix
	}
	var s setup
	for _, v := range sorts.Variants() {
		if v.Algorithm == string(e.Algorithm) && v.Model == string(e.Model) {
			s.prog = v
		}
	}
	if s.prog.Sort == nil {
		return s, fmt.Errorf("repro: no program for algorithm %q under model %q (models: %v)",
			e.Algorithm, e.Model, Models(e.Algorithm))
	}
	s.keys = keys.GenConfig{N: e.N, Procs: e.Procs, RadixBits: e.Radix, Seed: e.Seed, AdvSamples: e.SampleSize}
	if err := s.keys.Validate(); err != nil {
		return s, err
	}
	if n := s.prog.Procs; n != 0 && e.Procs != n {
		return s, fmt.Errorf("repro: %s/%s runs on %d processor, got %d", e.Algorithm, e.Model, n, e.Procs)
	}
	mc, mp := e.platform(s.prog.Engine)
	s.machine = e.policy(mc)
	if err := s.machine.Validate(); err != nil {
		return s, err
	}
	s.sort = sorts.Config{Radix: e.Radix, SampleSize: e.SampleSize, MPI: mp,
		MPIOneMessagePerDest: e.MPIOneMessagePerDest}
	return s, nil
}

// ParseModel resolves a model name.
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{Seq, CCSAS, CCSASNew, MPI, MPISGI, SHMEM} {
		if strings.EqualFold(s, string(m)) {
			return m, nil
		}
	}
	return "", fmt.Errorf("repro: unknown model %q", s)
}

// ParseTopology resolves an interconnect name against the registered
// network kinds ("" stays "", selecting the default Origin2000
// hypercube).
func ParseTopology(s string) (string, error) {
	if s == "" {
		return "", nil
	}
	for _, k := range topology.Kinds() {
		if strings.EqualFold(s, k) {
			return k, nil
		}
	}
	return "", fmt.Errorf("repro: unknown topology %q (known: %s)",
		s, strings.Join(topology.Kinds(), ", "))
}

// ParseAlgorithm resolves an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{Radix, Sample, Psrs} {
		if strings.EqualFold(s, string(a)) {
			return a, nil
		}
	}
	return "", fmt.Errorf("repro: unknown algorithm %q", s)
}

// Request is the wire form of one experiment: the tuple every number of
// the evaluation is named by, spelled as the command-line flags and
// simd's JSON bodies spell it — names as case-insensitive strings, zero
// values for the defaults. Its Experiment method is the only place a
// front end turns names into an Experiment.
type Request struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	N         int    `json:"n"`
	Procs     int    `json:"procs"`
	// Radix 0 selects 8 bits, the paper's baseline digit size.
	Radix int `json:"radix"`
	// Dist "" selects gauss, the paper's default distribution.
	Dist string `json:"dist"`
	// Topo "" selects the Origin2000 hypercube (see topology.Kinds).
	Topo     string `json:"topo"`
	Seed     uint64 `json:"seed"`
	FullSize bool   `json:"full_size"`
	// Trace records the run's virtual-time event trace.
	Trace bool `json:"trace"`
}

// Experiment parses, defaults and validates the request. It returns the
// experiment to run — carrying everything Validate accepts, so nothing
// Run would refuse without simulating gets past it — and the request's
// canonical spelling: lowercase names, every default written out. Two
// requests with the same canonical form are the same experiment; its
// JSON encoding (fields in declaration order, every field present) is
// the config half of simd's cache key and the "config" of its result
// documents, so neither the fields nor their order may change.
func (r Request) Experiment() (Experiment, Request, error) {
	alg, err := ParseAlgorithm(r.Algorithm)
	if err != nil {
		return Experiment{}, Request{}, err
	}
	model, err := ParseModel(r.Model)
	if err != nil {
		return Experiment{}, Request{}, err
	}
	dist := keys.Gauss
	if r.Dist != "" {
		if dist, err = keys.ParseDist(r.Dist); err != nil {
			return Experiment{}, Request{}, err
		}
	}
	topo, err := ParseTopology(r.Topo)
	if err != nil {
		return Experiment{}, Request{}, err
	}
	e := Experiment{
		Algorithm: alg, Model: model, N: r.N, Procs: r.Procs, Radix: r.Radix,
		Dist: dist, Topo: topo, Seed: r.Seed, FullSize: r.FullSize, Trace: r.Trace,
	}
	if _, err := e.resolve(); err != nil {
		return Experiment{}, Request{}, err
	}
	canon := Request{
		Algorithm: string(alg), Model: string(model), N: e.N, Procs: e.Procs, Radix: e.Radix,
		Dist: dist.String(), Topo: topo, Seed: e.Seed, FullSize: e.FullSize, Trace: e.Trace,
	}
	// An empty topo IS the hypercube, and the two spellings must be one
	// cache entry. The Experiment keeps the spelling it was given.
	if canon.Topo == "" {
		canon.Topo = topology.KindHypercube
	}
	return e, canon, nil
}

// SizeClass maps a paper data-set label to its key counts: the paper's
// count and the scaled count used on the scaled machine (÷16, matching
// the cache scaled ÷16 by machine.ScaleFactor; every capacity crossover
// lands in the same place relative to the cache).
type SizeClass struct {
	Label   string
	PaperN  int
	ScaledN int
}

// SizeClasses are the paper's five data-set sizes. Scaled counts divide
// by machine.ScaleFactor (16), matching the scaled machine's cache.
var SizeClasses = []SizeClass{
	{"1M", 1 << 20, 1 << 16},
	{"4M", 1 << 22, 1 << 18},
	{"16M", 1 << 24, 1 << 20},
	{"64M", 1 << 26, 1 << 22},
	{"256M", 1 << 28, 1 << 24},
}

// SizeByLabel returns the size class with the given label.
func SizeByLabel(label string) (SizeClass, error) {
	for _, s := range SizeClasses {
		if strings.EqualFold(s.Label, label) {
			return s, nil
		}
	}
	return SizeClass{}, fmt.Errorf("repro: unknown size class %q", label)
}

// Experiment specifies one sorting run.
type Experiment struct {
	Algorithm Algorithm
	Model     Model
	// N is the key count (use SizeClasses for paper-comparable sizes).
	N int
	// Procs is the processor count (16/32/64 in the paper): any count the
	// interconnect can wire, and one for the sequential baseline.
	Procs int
	// Radix is the digit size in bits (default 8).
	Radix int
	// Dist is the key distribution (default Gauss).
	Dist keys.Dist
	// Topo selects the machine's interconnect by registered network kind
	// ("" = the Origin2000 hypercube; see topology.Kinds and the -topo
	// flags of the cmd drivers).
	Topo string
	// Seed perturbs key generation.
	Seed uint64
	// SampleSize overrides sample sort's per-processor sample count
	// (0 = keys.DefaultSamples). The Adversarial key distribution mirrors
	// this value so its splitter-defeating construction targets the
	// sampler actually used; key generation for the other distributions
	// ignores it, and the same value always produces the same keys for
	// every algorithm, so cross-algorithm comparisons stay apples to
	// apples.
	SampleSize int
	// FullSize runs on the unscaled Origin2000 machine parameters.
	FullSize bool
	// MPIBufDepth overrides the per-pair window depth (0 = default) for
	// the buffer-depth ablation.
	MPIBufDepth int
	// MPIOneMessagePerDest selects the NAS-IS-style radix MPI permutation
	// (one message per destination, receiver reorganizes) instead of the
	// paper's per-chunk messages.
	MPIOneMessagePerDest bool
	// Ablation flags (see DESIGN.md §4), the machine's switches of the
	// same names.
	FlatMemory   bool
	NoContention bool
	// Paranoid shadows every simulated access with the reference models
	// and invariant checks of internal/check (DESIGN.md §9). Outputs are
	// byte-identical to a normal run; the host slows down severalfold,
	// and Run fails with a structured error if any check is violated.
	Paranoid bool
	// ParanoidSampleEvery spot-samples the paranoid checks: 0 or 1 keeps
	// the full per-access shadow, N > 1 (which implies Paranoid) runs the
	// stateless oracles on every Nth priced event while keeping the fast
	// batched kernels. See machine.Config.ParanoidSampleEvery.
	ParanoidSampleEvery int
	// Trace records a deterministic virtual-time event trace of the run
	// (see DESIGN.md §7); the trace is attached to the Outcome.
	Trace bool
}

// Label is the canonical human-readable name of the experiment, used to
// label traces and figure rows.
func (e Experiment) Label() string {
	l := fmt.Sprintf("%s/%s n=%d p=%d r=%d", e.Algorithm, e.Model, e.N, e.Procs, e.Radix) + e.topoTag()
	if e.Dist != keys.Gauss {
		l += " dist=" + e.Dist.String()
	}
	return l
}

// topoTag names a non-default interconnect. Like Label's dist=, it
// appears only when the setting departs from the paper's, so the name of
// a paper-default experiment never changes.
func (e Experiment) topoTag() string {
	if e.Topo == "" || e.Topo == topology.KindHypercube {
		return ""
	}
	return " topo=" + e.Topo
}

// progressLine is the Harness Progress line of one completed run, with
// simulated time timeNs. The argument lists are an interface: cmd/bench
// rebuilds the cells a figure ran from them (seven arguments for a
// parallel run, three for a sequential baseline), so what Label adds
// beyond them — topoTag, which has no '%' in it — rides in the format.
func (e Experiment) progressLine(timeNs float64) (format string, args []any) {
	if e.Model == Seq {
		return "baseline n=%d dist=%v: %s", []any{e.N, e.Dist, report.Ms(timeNs)}
	}
	return "%-6s %-9s n=%-8d p=%-2d r=%-2d %-7v  %s" + e.topoTag(),
		[]any{e.Algorithm, e.Model, e.N, e.Procs, e.Radix, e.Dist, report.Ms(timeNs)}
}

// platform is the one decision "which machine and which MPI library
// does this experiment run on": the Origin2000 preset wired as e.Topo —
// scaled ÷16 unless FullSize; the machine's Scale also divides the
// libraries' fixed software costs (DESIGN.md §1) — and the MPI library
// the model names, at e.MPIBufDepth when that is set. resolve (for Run)
// and Predict both start here.
func (e Experiment) platform(engine mpi.Engine) (machine.Config, mpi.Config) {
	mc, mp := machine.Origin2000Scaled(e.Procs), mpi.ConfigFor(engine)
	if e.FullSize {
		mc = machine.Origin2000(e.Procs)
	}
	mc.Topology.Kind = e.Topo
	if e.MPIBufDepth > 0 {
		mp.BufDepth = e.MPIBufDepth
	}
	return mc, mp
}

// MachineConfigFor returns the machine configuration Run builds for an
// experiment: its platform's machine under the experiment's policy.
func MachineConfigFor(e Experiment) machine.Config {
	cfg, _ := e.platform(mpi.Direct)
	return e.policy(cfg)
}

// policy applies to the platform's machine cfg the paper's page-size
// policy (the authors used 64 KB pages up to 64M keys and 256 KB pages at
// 256M, each divided by the machine's scale, as is the size class) and
// the experiment's ablation and paranoid switches.
func (e Experiment) policy(cfg machine.Config) machine.Config {
	cfg.TLB.PageSize = (64 << 10) / cfg.Scale
	if e.N >= SizeClasses[4].PaperN/cfg.Scale {
		cfg.TLB.PageSize = (256 << 10) / cfg.Scale
	}
	cfg.FlatMemory, cfg.NoContention = e.FlatMemory, e.NoContention
	// The machine's one paranoid value: a sample period N > 1 implies
	// Paranoid; otherwise Paranoid checks every access.
	cfg.ParanoidSampleEvery = e.ParanoidSampleEvery
	if n := e.ParanoidSampleEvery; n == 0 || n == 1 {
		cfg.ParanoidSampleEvery = 0
		if e.Paranoid {
			cfg.ParanoidSampleEvery = 1
		}
	}
	return cfg
}

// Predict runs the analytic performance model (internal/perfmodel, the
// paper's stated future work) on the experiment's platform and workload
// shape (N, Procs, Radix) and returns every predicted programming
// model's radix-sort estimate, fastest first. The model prices the
// preset's own page size, not MachineConfigFor's per-size page policy;
// its calibration against the simulator (perfmodel's tests) was made
// there.
func Predict(e Experiment) ([]*perfmodel.Prediction, error) {
	if _, err := e.resolve(); err != nil {
		return nil, err
	}
	mc, mp := e.platform(mpi.Direct)
	pr, err := perfmodel.New(mc, mp, shmem.Config{})
	if err != nil {
		return nil, err
	}
	return pr.PredictAll(perfmodel.Workload{N: e.N, Procs: e.Procs, Radix: e.Radix})
}

// Outcome is one executed experiment.
type Outcome struct {
	Experiment Experiment
	// Result carries the sorted output and per-processor stats.
	Result *sorts.Result
	// TimeNs is the simulated execution time.
	TimeNs float64
	// Verified is true when the output was checked to be an ascending
	// permutation of the input.
	Verified bool
}

// Trace returns the run's virtual-time event trace, or nil when the
// experiment was not run with Trace set.
func (o *Outcome) Trace() *trace.Trace { return o.Result.Run.Trace }

// Breakdowns returns the per-processor BUSY/LMEM/RMEM/SYNC split.
func (o *Outcome) Breakdowns() []machine.Breakdown {
	out := make([]machine.Breakdown, len(o.Result.Run.PerProc))
	for i, ps := range o.Result.Run.PerProc {
		out[i] = ps.Breakdown
	}
	return out
}

// Run executes one experiment: generates the keys, builds the machine,
// runs the selected program, and verifies the output.
func Run(e Experiment) (*Outcome, error) {
	s, err := e.resolve()
	if err != nil {
		return nil, err
	}
	in, err := keys.Generate(e.Dist, s.keys)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(s.machine)
	if err != nil {
		return nil, err
	}
	// Return the machine's slab arena to the process-wide pool so the
	// next grid cell reuses it, on every path out, a failed run included.
	// Nothing in the Outcome lives there: every program gathers its output
	// into a slice of its own.
	defer m.Release()
	if e.Trace {
		m.EnableTracing()
	}
	res, err := s.prog.Sort(m, in, s.sort)
	if err != nil {
		// A failed run's *machine.ProcPanic or *machine.StrandedError
		// stays reachable through errors.As.
		return nil, fmt.Errorf("repro: %s: %w", e.Label(), err)
	}
	if err := verifySorted(in, res.Sorted); err != nil {
		return nil, fmt.Errorf("repro: %s/%s output invalid: %w", e.Algorithm, e.Model, err)
	}
	if ck := m.Checker(); ck != nil {
		if cerr := ck.Err(); cerr != nil {
			return nil, fmt.Errorf("repro: paranoid run of %s detected model violations: %w", e.Label(), cerr)
		}
	}
	if tr := res.Run.Trace; tr != nil {
		tr.Label = e.Label()
		// Receive balance of the main redistribution (RecvCounts): how
		// evenly the splitter-directed exchange (sample/PSRS) or the
		// blocked exchange (radix) spread the keys. partition.imbalance
		// is max/mean; 1.0 is perfectly flat.
		if len(res.RecvCounts) > 0 {
			maxKeys, sum := 0, 0
			for _, c := range res.RecvCounts {
				sum += c
				if c > maxKeys {
					maxKeys = c
				}
			}
			mean := float64(sum) / float64(len(res.RecvCounts))
			tr.AddMetric("partition.max_keys", float64(maxKeys))
			tr.AddMetric("partition.mean_keys", mean)
			if mean > 0 {
				tr.AddMetric("partition.imbalance", float64(maxKeys)/mean)
			} else {
				tr.AddMetric("partition.imbalance", 0)
			}
		}
	}
	return &Outcome{Experiment: e, Result: res, TimeNs: res.TimeNs(), Verified: true}, nil
}

// verifySorted checks in O(n) that out has in's length, is ascending,
// and has the same multiset fingerprint as in: the 64-bit sum of the
// keys and the XOR of each key times a fixed odd constant. It decides
// every Outcome.Verified. The fingerprint is not a proof of permutation
// — two different multisets can collide on both — but a lost, duplicated
// or overwritten key moves the sum, which is what a broken exchange
// produces.
func verifySorted(in, out []uint32) error {
	if len(in) != len(out) {
		return fmt.Errorf("length %d, want %d", len(out), len(in))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("not ascending at index %d: %d > %d", i, out[i-1], out[i])
		}
	}
	var sumIn, sumOut uint64
	var xorIn, xorOut uint32
	for i := range in {
		sumIn += uint64(in[i])
		xorIn ^= in[i] * 2654435761
		sumOut += uint64(out[i])
		xorOut ^= out[i] * 2654435761
	}
	if sumIn != sumOut || xorIn != xorOut {
		return fmt.Errorf("output is not a permutation of the input")
	}
	return nil
}
