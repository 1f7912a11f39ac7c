package sorts

import (
	"math"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// FuzzSortAgreement drives every sorting program in the Variants table —
// sequential baseline, radix sort, sample sort and PSRS under all
// programming models and both MPI libraries — over fuzzed key sets,
// sizes, radixes, machines and both machine presets, and requires that each output is exactly the sort.Slice ordering of the
// input and that every simulated-time bucket stays non-negative and
// finite. This is the package's strongest functional invariant: the
// simulator may reprice memory, but it must never corrupt data or
// produce nonsense charges.
//
// The two small arguments pack the machine:
//   - procSel bit 7 picks the full-size Origin2000 over the scaled one;
//   - procSel bit 6 clear keeps the original draw, 2, 4 or 8 processors
//     from procSel's low bits; set, the processor count is 1 + (procSel's
//     low six bits, radixRaw's top bit as bit 6) mod 70;
//   - radixRaw's low three bits pick the radix, 4..11;
//   - radixRaw bits 3..6 pick the interconnect: 0 the default hypercube,
//     k > 0 topology.Kinds()[(k-1) % len].
//
// A processor count the interconnect cannot wire (an odd count above 1,
// or one the hypercube refuses) skips the input.
func FuzzSortAgreement(f *testing.F) {
	f.Add(uint64(1), uint16(1000), uint8(1), uint8(4))
	f.Add(uint64(0), uint16(64), uint8(0), uint8(0))
	f.Add(uint64(0xdeadbeef), uint16(4000), uint8(2), uint8(7))
	f.Add(uint64(42), uint16(257), uint8(3), uint8(2))
	f.Add(uint64(7), uint16(3), uint8(1), uint8(5))
	// Shaped seeds (top three seed bits select the shape; see fuzzKeys):
	// duplicate-heavy and pre-sorted inputs stress PSRS's regular-sampling
	// pivot ties and degenerate partitions, and the four skew generators
	// (zipf, selfsim, dupheavy, adversarial) stress splitter selection.
	f.Add(uint64(1)<<61|11, uint16(2048), uint8(2), uint8(4))
	f.Add(uint64(2)<<61|22, uint16(1500), uint8(1), uint8(5))
	f.Add(uint64(3)<<61|33, uint16(900), uint8(0), uint8(3))
	f.Add(uint64(4)<<61|44, uint16(4095), uint8(2), uint8(7))
	f.Add(uint64(5)<<61|12345, uint16(2000), uint8(2), uint8(4))
	f.Add(uint64(6)<<61|99, uint16(1024), uint8(2), uint8(3))
	f.Add(uint64(7)<<61|7, uint16(777), uint8(1), uint8(6))
	// The full-size machine.
	f.Add(uint64(5), uint16(2500), uint8(0x80|2), uint8(4))
	f.Add(uint64(5)<<61|8, uint16(600), uint8(0x80|1), uint8(3))
	// One processor; more processors (40) than keys (10); and a
	// non-power-of-two count on every other interconnect: dragonfly 48,
	// fattree 6, numa2 70, torus 12, torus3d 24.
	f.Add(uint64(9), uint16(500), uint8(0x40|0), uint8(4))
	f.Add(uint64(3)<<61|5, uint16(9), uint8(0x40|39), uint8(2<<3|4))
	f.Add(uint64(13), uint16(3000), uint8(0x40|47), uint8(1<<3|1))
	f.Add(uint64(1)<<61|17, uint16(1200), uint8(0x40|5), uint8(2<<3|6))
	f.Add(uint64(5)<<61|21, uint16(2100), uint8(0x40|5), uint8(0x80|4<<3|0))
	f.Add(uint64(6)<<61|23, uint16(700), uint8(0x80|0x40|11), uint8(5<<3|3))
	f.Add(uint64(29), uint16(4095), uint8(0x40|23), uint8(6<<3|7))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, procSel, radixRaw uint8) {
		n := 1 + int(nRaw)%4096 // 1..4096 keys
		procs := 1 << (1 + (procSel&0x3f)%3)
		if procSel&0x40 != 0 {
			procs = 1 + (int(procSel&0x3f)|int(radixRaw>>7)<<6)%70
		}
		fullSize := procSel&0x80 != 0
		radix := 4 + int(radixRaw)%8 // 4..11 bits per digit
		kind := ""
		if k := int(radixRaw>>3) & 0xf; k > 0 {
			kind = topology.Kinds()[(k-1)%len(topology.Kinds())]
		}
		mc := fuzzConfig(procs, kind, fullSize)
		if err := mc.Validate(); err != nil {
			t.Skipf("no %d-processor %q machine: %v", procs, kind, err)
		}
		in := fuzzKeys(seed, n)
		cfg := Config{Radix: radix}

		want := append([]uint32(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		for _, v := range Variants() {
			name := v.Algorithm + "/" + v.Model
			vprocs := procs
			if v.Model == "seq" {
				vprocs = 1
			}
			cfg.MPI = mpi.ConfigFor(v.Engine)
			res, err := v.Sort(fuzzMachine(t, fuzzConfig(vprocs, kind, fullSize)), in, cfg)
			if err != nil {
				t.Fatalf("%s (n=%d procs=%d %s radix=%d full=%v): %v", name, n, procs, kind, radix, fullSize, err)
			}
			if len(res.Sorted) != len(want) {
				t.Fatalf("%s: output length %d, want %d", name, len(res.Sorted), len(want))
			}
			for i := range want {
				if res.Sorted[i] != want[i] {
					t.Fatalf("%s (n=%d procs=%d %s radix=%d full=%v): output[%d]=%d, sort.Slice says %d",
						name, n, procs, kind, radix, fullSize, i, res.Sorted[i], want[i])
				}
			}
			checkFiniteCharges(t, name, res)
		}
	})
}

// fuzzKeys expands a seed into n keys < 2^31 (the paper's key width)
// with a splitmix64 generator, so the fuzzer controls the distribution
// through a single integer. The top three seed bits select a shape —
// 0 plain random, 1-4 the skew generators (zipf, selfsim, dupheavy,
// adversarial), 5 duplicate-heavy (at most 9 distinct values),
// 6 pre-sorted ascending, 7 reverse-sorted — so the fuzzer also
// explores the inputs that stress regular-sampling pivot ties
// (duplicates), degenerate partitions (monotone runs), and
// splitter-defeating skew.
func fuzzKeys(seed uint64, n int) []uint32 {
	switch seed >> 61 {
	case 1:
		return keys.MustGenerate(keys.Zipf, keys.GenConfig{N: n, Procs: 8, RadixBits: 8, Seed: seed})
	case 2:
		return keys.MustGenerate(keys.SelfSim, keys.GenConfig{N: n, Procs: 8, RadixBits: 8, Seed: seed})
	case 3:
		return keys.MustGenerate(keys.DupHeavy, keys.GenConfig{N: n, Procs: 8, RadixBits: 8, Seed: seed})
	case 4:
		return keys.MustGenerate(keys.Adversarial, keys.GenConfig{N: n, Procs: 8, RadixBits: 8, Seed: seed})
	}
	out := make([]uint32, n)
	x := seed
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = uint32(z) & (1<<31 - 1)
	}
	switch seed >> 61 {
	case 5:
		for i := range out {
			out[i] = (out[i] % 9) * 0x0ccccccc
		}
	case 6:
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	case 7:
		sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	}
	return out
}

// fuzzConfig is the scaled or, if fullSize, the full-size machine of
// procs processors on the interconnect kind ("" the hypercube).
func fuzzConfig(procs int, kind string, fullSize bool) machine.Config {
	cfg := machine.Origin2000Scaled(procs)
	if fullSize {
		cfg = machine.Origin2000(procs)
	}
	cfg.Topology.Kind = kind
	return cfg
}

// fuzzMachine builds cfg without the testing.T helpers the unit tests
// use (fuzz workers call it from the Fuzz goroutine).
func fuzzMachine(t *testing.T, cfg machine.Config) *machine.Machine {
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("machine.New(%d procs, %q): %v", cfg.Topology.Processors, cfg.Topology.Kind, err)
	}
	return m
}

// checkFiniteCharges asserts every per-processor bucket — whole-run and
// per-phase — is non-negative and finite.
func checkFiniteCharges(t *testing.T, name string, res *Result) {
	if res.Run.TimeNs < 0 || math.IsNaN(res.Run.TimeNs) || math.IsInf(res.Run.TimeNs, 0) {
		t.Fatalf("%s: TimeNs=%v", name, res.Run.TimeNs)
	}
	for i, ps := range res.Run.PerProc {
		for _, b := range append([]machine.Breakdown{ps.Breakdown}, phaseBreakdowns(ps.Phases)...) {
			for _, v := range []float64{b.Busy, b.LMem, b.RMem, b.Sync} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s proc %d: bad breakdown bucket %v in %+v", name, i, v, b)
				}
			}
		}
	}
}

func phaseBreakdowns(m map[string]machine.Breakdown) []machine.Breakdown {
	out := make([]machine.Breakdown, 0, len(m))
	for _, b := range m {
		out = append(out, b)
	}
	return out
}
