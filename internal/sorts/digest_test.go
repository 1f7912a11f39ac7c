package sorts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
)

var updateDigests = flag.Bool("update", false, "regenerate testdata/variant_digests.json")

const digestFile = "testdata/variant_digests.json"

// digestVariant is one algorithm × model variant, named by the Model
// string its Result must carry. procs, when set, is the one processor
// count it runs on (the sequential baseline's 1, as its Variants() row
// states); shapes of any other size skip it.
type digestVariant struct {
	algorithm, model string
	run              func(*machine.Machine, []uint32, Config) (*Result, error)
	procs            int
}

// runsOn reports whether v runs at shape s.
func (v digestVariant) runsOn(s digestShape) bool { return v.procs == 0 || v.procs == s.procs }

func digestVariants() []digestVariant {
	withMPI := func(e mpi.Engine, oneMsg bool,
		f func(*machine.Machine, []uint32, Config) (*Result, error)) func(*machine.Machine, []uint32, Config) (*Result, error) {
		return func(m *machine.Machine, in []uint32, c Config) (*Result, error) {
			c.MPI = mpi.ConfigFor(e)
			c.MPIOneMessagePerDest = oneMsg
			return f(m, in, c)
		}
	}
	ccsas := func(buffered bool) func(*machine.Machine, []uint32, Config) (*Result, error) {
		return func(m *machine.Machine, in []uint32, c Config) (*Result, error) {
			return RadixCCSAS(m, in, c, buffered)
		}
	}
	return []digestVariant{
		{"radix", "seq", SeqRadix, 1},
		{"radix", "ccsas", ccsas(false), 0},
		{"radix", "ccsas-new", ccsas(true), 0},
		{"radix", "mpi-NEW", withMPI(mpi.Direct, false, RadixMPI), 0},
		{"radix", "mpi-SGI", withMPI(mpi.Staged, false, RadixMPI), 0},
		{"radix", "mpi-NEW-onemsg", withMPI(mpi.Direct, true, RadixMPI), 0},
		{"radix", "shmem", RadixSHMEM, 0},
		{"sample", "ccsas", SampleCCSAS, 0},
		{"sample", "mpi-NEW", withMPI(mpi.Direct, false, SampleMPI), 0},
		{"sample", "mpi-SGI", withMPI(mpi.Staged, false, SampleMPI), 0},
		{"sample", "shmem", SampleSHMEM, 0},
		{"psrs", "ccsas", PsrsCCSAS, 0},
		{"psrs", "mpi-NEW", withMPI(mpi.Direct, false, PsrsMPI), 0},
		{"psrs", "mpi-SGI", withMPI(mpi.Staged, false, PsrsMPI), 0},
		{"psrs", "shmem", PsrsSHMEM, 0},
	}
}

// digestShape is one machine × input shape every variant is pinned at.
type digestShape struct {
	name         string
	procs, n     int
	radix        int
	dist         keys.Dist
	topo         string
	procsPerNode int // 0 = the Origin2000's two
	flat         bool
	sampleSize   int
	// traced records the virtual-time event trace and folds it into the
	// digest, pinning every phase boundary and communication event.
	traced bool
}

func digestShapes() []digestShape {
	return []digestShape{
		{name: "p1", procs: 1, n: 1 << 11, radix: 8, dist: keys.Gauss},
		// One-processor shapes that also pin the sequential baseline: an
		// odd pass count, whose result ends in the scratch array, with its
		// phase spans traced; and the flat-memory ablation.
		{name: "p1-r11-traced", procs: 1, n: 5000, radix: 11, dist: keys.Gauss, traced: true},
		{name: "p1-flat", procs: 1, n: 1 << 13, radix: 8, dist: keys.Zipf, flat: true},
		{name: "p2", procs: 2, n: 1 << 12, radix: 8, dist: keys.Gauss},
		{name: "p8", procs: 8, n: 1 << 13, radix: 8, dist: keys.Gauss},
		{name: "p64", procs: 64, n: 1 << 14, radix: 8, dist: keys.Gauss},
		// The scaled 1M class of the paper's figures.
		{name: "p8-1M", procs: 8, n: 1 << 16, radix: 8, dist: keys.Gauss},
		{name: "p64-1M", procs: 64, n: 1 << 16, radix: 8, dist: keys.Gauss},
		{name: "p4-traced", procs: 4, n: 1 << 12, radix: 8, dist: keys.Gauss, traced: true},
		// Non-power-of-two machines (the fat-tree accepts any router
		// count).
		{name: "p3-fattree", procs: 3, n: 3001, radix: 8, dist: keys.Gauss,
			topo: topology.KindFatTree, procsPerNode: 1},
		{name: "p12-fattree", procs: 12, n: 1 << 13, radix: 8, dist: keys.Random,
			topo: topology.KindFatTree},
		// Partitions of unequal size, and more processors than keys.
		{name: "p8-uneven", procs: 8, n: 10007, radix: 8, dist: keys.Gauss},
		{name: "p8-fewkeys", procs: 8, n: 5, radix: 8, dist: keys.Random},
		{name: "p8-fewsamples", procs: 8, n: 300, radix: 8, dist: keys.Gauss},
		// Radix sizes with an odd pass count (7: 5 passes, 11: 3) and the
		// default even one.
		{name: "p8-r7", procs: 8, n: 1 << 13, radix: 7, dist: keys.Gauss},
		{name: "p8-r11", procs: 8, n: 1 << 13, radix: 11, dist: keys.Gauss},
		// Key distributions that bend the exchange: duplicates, skew,
		// splitter-defeating.
		{name: "p8-zero", procs: 8, n: 1 << 13, radix: 8, dist: keys.Zero},
		{name: "p8-zipf", procs: 8, n: 1 << 13, radix: 8, dist: keys.Zipf},
		{name: "p8-adversarial", procs: 8, n: 1 << 13, radix: 8, dist: keys.Adversarial, sampleSize: 16},
		{name: "p16-remote", procs: 16, n: 1 << 13, radix: 8, dist: keys.Remote},
		// Memory systems: the flat-memory ablation and the two-tier NUMA.
		{name: "p8-flat", procs: 8, n: 1 << 13, radix: 8, dist: keys.Gauss, flat: true},
		{name: "p16-numa2", procs: 16, n: 1 << 13, radix: 8, dist: keys.Gauss,
			topo: topology.KindNUMA2},
	}
}

func (s digestShape) machine(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.Origin2000Scaled(s.procs)
	cfg.Topology.Kind = s.topo
	if s.procsPerNode != 0 {
		cfg.Topology.ProcsPerNode = s.procsPerNode
	}
	cfg.TLB.PageSize = (64 << 10) / machine.ScaleFactor
	cfg.FlatMemory = s.flat
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("%s: machine.New: %v", s.name, err)
	}
	if s.traced {
		m.EnableTracing()
	}
	return m
}

// resultDigest folds everything simulated about one run into a sha256:
// the execution time, every processor's breakdown (whole-run and per
// phase, labels sorted), its cache/TLB/writeback/protocol/message/
// remote-byte counters, the receive counts, the model string and (when
// recorded) the event trace.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	bd := func(b machine.Breakdown) { f(b.Busy); f(b.LMem); f(b.RMem); f(b.Sync) }

	fmt.Fprintf(h, "%s/%s;", res.Algorithm, res.Model)
	f(res.Run.TimeNs)
	u(uint64(len(res.Run.PerProc)))
	for _, ps := range res.Run.PerProc {
		bd(ps.Breakdown)
		labels := make([]string, 0, len(ps.Phases))
		for l := range ps.Phases {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(h, "%s;", l)
			bd(ps.Phases[l])
		}
		u(ps.CacheAccesses)
		u(ps.CacheMisses)
		u(ps.TLBMisses)
		u(ps.Writebacks)
		u(uint64(ps.Traffic.ProtocolTransactions))
		u(uint64(ps.Traffic.Messages))
		u(uint64(ps.Traffic.RemoteBytes))
	}
	u(uint64(len(res.RecvCounts)))
	for _, c := range res.RecvCounts {
		u(uint64(c))
	}
	if tr := res.Run.Trace; tr != nil {
		if err := trace.WriteChrome(h, tr); err != nil {
			panic(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestVariantDigests pins the simulated result of the 14 parallel
// algorithm × model variants, bit for bit, across processor counts (1,
// 2, 8, 64 and non-powers-of-two), uneven and tiny inputs, radix sizes, key
// distributions and memory systems, and of the sequential baseline at
// every one-processor shape. The committed file was generated
// from the nine hand-written per-model program bodies; any refactor of
// the sorts or the model layers must reproduce it exactly. Run with
// -update only when a change of simulated behaviour is intended.
func TestVariantDigests(t *testing.T) {
	got := make(map[string]string)
	for _, s := range digestShapes() {
		in, err := keys.Generate(s.dist, keys.GenConfig{
			N: s.n, Procs: s.procs, RadixBits: s.radix, Seed: 7, AdvSamples: s.sampleSize,
		})
		if err != nil {
			t.Fatalf("%s: keys: %v", s.name, err)
		}
		want := append([]uint32(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, v := range digestVariants() {
			if !v.runsOn(s) {
				continue
			}
			id := fmt.Sprintf("%s/%s %s", v.algorithm, v.model, s.name)
			cfg := Config{Radix: s.radix, SampleSize: s.sampleSize}
			res, err := v.run(s.machine(t), in, cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Algorithm != v.algorithm || res.Model != v.model {
				t.Fatalf("%s: result labeled %s/%s", id, res.Algorithm, res.Model)
			}
			if len(res.Sorted) != len(want) {
				t.Fatalf("%s: %d keys out, want %d", id, len(res.Sorted), len(want))
			}
			for i := range want {
				if res.Sorted[i] != want[i] {
					t.Fatalf("%s: output[%d] = %d, want %d", id, i, res.Sorted[i], want[i])
				}
			}
			got[id] = resultDigest(res)
		}
	}

	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	for id, d := range got {
		if w, ok := want[id]; !ok {
			t.Errorf("%s: no committed digest (run with -update)", id)
		} else if w != d {
			t.Errorf("%s: simulated result moved: digest %s, committed %s", id, d[:16], w[:16])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: committed digest for a cell the test no longer runs", id)
		}
	}
}
