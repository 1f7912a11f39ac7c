package keys

import (
	"fmt"
	"testing"
)

func TestSkewDistsInRangeAndDeterministic(t *testing.T) {
	for _, d := range SkewDists {
		keys := gen(t, d, 10000, 8, 8)
		if len(keys) != 10000 {
			t.Fatalf("%v: got %d keys", d, len(keys))
		}
		for i, k := range keys {
			if uint64(k) >= MaxKey {
				t.Errorf("%v: key[%d] = %d out of range", d, i, k)
				break
			}
		}
		again := gen(t, d, 10000, 8, 8)
		for i := range keys {
			if keys[i] != again[i] {
				t.Errorf("%v: generation not deterministic at %d", d, i)
				break
			}
		}
	}
}

// TestSkewDistsSeedSensitivity: different seeds must produce
// substantially different streams for every skew generator.
func TestSkewDistsSeedSensitivity(t *testing.T) {
	for _, d := range SkewDists {
		a := MustGenerate(d, GenConfig{N: 4096, Procs: 8, RadixBits: 8, Seed: 1})
		b := MustGenerate(d, GenConfig{N: 4096, Procs: 8, RadixBits: 8, Seed: 2})
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		// Heavy-duplicate streams collide on values by design; the
		// position-wise stream must still be reshuffled.
		if same > len(a)/2 {
			t.Errorf("%v: seeds 1 and 2 agree on %d/%d positions", d, same, len(a))
		}
	}
}

// TestSkewDistsProcsInvariance: Zipf, SelfSim and DupHeavy are single
// sequential streams, so the emitted keys must be byte-identical across
// Procs block boundaries. Adversarial is constructed per processor
// block by design, so its stream legitimately depends on Procs — pinned
// here so an accidental change to either contract is caught.
func TestSkewDistsProcsInvariance(t *testing.T) {
	for _, d := range []Dist{Zipf, SelfSim, DupHeavy} {
		p1 := MustGenerate(d, GenConfig{N: 10000, Procs: 1, RadixBits: 8, Seed: 3})
		p8 := MustGenerate(d, GenConfig{N: 10000, Procs: 8, RadixBits: 8, Seed: 3})
		for i := range p1 {
			if p1[i] != p8[i] {
				t.Errorf("%v: stream depends on Procs at index %d (%d != %d)", d, i, p1[i], p8[i])
				break
			}
		}
	}
	a1 := MustGenerate(Adversarial, GenConfig{N: 1 << 14, Procs: 4, RadixBits: 8, Seed: 3})
	a8 := MustGenerate(Adversarial, GenConfig{N: 1 << 14, Procs: 8, RadixBits: 8, Seed: 3})
	same := 0
	for i := range a1 {
		if a1[i] == a8[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Error("adversarial: identical across Procs, the per-block construction is gone")
	}
}

func TestParseDistSkewRoundTrip(t *testing.T) {
	for _, d := range SkewDists {
		got, err := ParseDist(d.String())
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDist(%q) = %v, want %v", d.String(), got, d)
		}
	}
	if _, err := ParseDist("no-such-dist"); err == nil {
		t.Error("ParseDist accepted an unknown name")
	}
}

// TestSkewGoldenFirst16 pins the first 16 keys of every skew generator
// at a fixed config, so accidental RNG-stream changes (seed constants,
// draw order, table sizes) are caught even when the distribution shape
// stays plausible.
func TestSkewGoldenFirst16(t *testing.T) {
	golden := map[Dist][16]uint32{
		Zipf:        {1043568552, 1816502142, 1887981930, 40341938, 850100530, 1196235018, 778726061, 129254433, 778726061, 2065550377, 1286532626, 778726061, 1277531636, 1628267794, 778726061, 1235178666},
		SelfSim:     {798455, 3436008, 3458308, 1236999, 498236611, 3435973, 1106, 429496764, 498216215, 0, 797850, 3985999, 138317, 88679790, 687195, 3436158},
		DupHeavy:    {2089059962, 854706190, 992553082, 1717105402, 1789720715, 2089059962, 184020870, 493438910, 184020870, 57728911, 57728911, 1593222137, 360126148, 709162072, 184020870, 709162072},
		Adversarial: {1169712751, 1599374298, 1269390301, 814629496, 1822673857, 1274287101, 1465953251, 185802403, 1979617322, 1205189956, 593090565, 232870026, 289210108, 318168965, 2128456504, 1176286712},
	}
	for _, d := range SkewDists {
		keys := MustGenerate(d, GenConfig{N: 1024, Procs: 8, RadixBits: 8, Seed: 1})
		var got [16]uint32
		copy(got[:], keys[:16])
		if got != golden[d] {
			t.Errorf("%v: first 16 keys changed:\n got %v\nwant %v", d, got, golden[d])
		}
	}
}

// TestZipfSkewShape: the top Zipf rank dominates — with s=1.2 over 1024
// ranks the most frequent value covers well over 10% of the stream.
func TestZipfSkewShape(t *testing.T) {
	keys := MustGenerate(Zipf, GenConfig{N: 1 << 16, Procs: 8, RadixBits: 8, Seed: 1})
	freq := map[uint32]int{}
	top := 0
	for _, k := range keys {
		freq[k]++
		top = max(top, freq[k])
	}
	if top < (1<<16)/10 {
		t.Errorf("zipf top value covers %d/%d keys, want > 10%%", top, 1<<16)
	}
}

// TestSelfSimShape: the 80/20 law — about 80% of the keys fall in the
// lowest fifth of the key space.
func TestSelfSimShape(t *testing.T) {
	keys := MustGenerate(SelfSim, GenConfig{N: 1 << 16, Procs: 8, RadixBits: 8, Seed: 1})
	fifth := uint32(MaxKey / 5)
	low := 0
	for _, k := range keys {
		if k < fifth {
			low++
		}
	}
	frac := float64(low) / float64(len(keys))
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("self-similar lowest-fifth mass = %.3f, want ~0.80", frac)
	}
}

// TestDupHeavyShape: exactly 16 distinct values, one in each sixteenth
// of the key space.
func TestDupHeavyShape(t *testing.T) {
	keys := MustGenerate(DupHeavy, GenConfig{N: 1 << 14, Procs: 8, RadixBits: 8, Seed: 1})
	strata := map[uint64]uint32{}
	for _, k := range keys {
		s := uint64(k) * dupValues / MaxKey
		if v, seen := strata[s]; seen && v != k {
			t.Fatalf("stratum %d holds two values, %d and %d", s, v, k)
		}
		strata[s] = k
	}
	if len(strata) != dupValues {
		t.Errorf("dupheavy has %d distinct values, want %d", len(strata), dupValues)
	}
}

// TestAdversarialHiddenBand verifies the construction does what the
// doc comment claims: a narrow global value band holds about
// N/(S+1) keys — one inter-sample gap per processor — which is the
// mass a splitter-directed exchange dumps on a single processor.
func TestAdversarialHiddenBand(t *testing.T) {
	const n, p, s = 1 << 16, 16, 32
	keys := MustGenerate(Adversarial, GenConfig{N: n, Procs: p, RadixBits: 8, Seed: 1, AdvSamples: s})
	// Reconstruct the band the generator targets.
	m := s / 2
	mid := MaxKey * uint64(2*m+1) / (2 * uint64(s+1))
	w := uint64(1) << 20
	if gapW := MaxKey / uint64(s+1); w > gapW/2 {
		w = gapW / 2
	}
	bandLo, bandHi := mid-w/2, mid+(w+1)/2
	in := 0
	for _, k := range keys {
		if uint64(k) >= bandLo && uint64(k) < bandHi {
			in++
		}
	}
	want := n / (s + 1)
	if in < want*9/10 || in > want*11/10 {
		t.Errorf("hidden band holds %d keys, want ~%d (N/(S+1))", in, want)
	}
	// The band is invisible to the sampler: within each processor block,
	// the count of keys strictly below the band must sit exactly on a
	// sample position boundary (rank m*np/(S+1)).
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(n, p, proc)
		below := 0
		for _, k := range keys[lo:hi] {
			if uint64(k) < bandLo {
				below++
			}
		}
		np := hi - lo
		rankA := m * np / (s + 1)
		if m > 0 {
			rankA++
		}
		if below != rankA {
			t.Errorf("proc %d: %d keys below the band, want %d (sampler-aligned)", proc, below, rankA)
		}
	}
}

func TestSkewGenConfigValidation(t *testing.T) {
	base := GenConfig{N: 1024, Procs: 4, RadixBits: 8}
	for _, tc := range []struct {
		name string
		mut  func(*GenConfig)
	}{
		{"negative AdvSamples", func(c *GenConfig) { c.AdvSamples = -1 }},
		{"huge AdvSamples", func(c *GenConfig) { c.AdvSamples = 1 << 21 }},
	} {
		cfg := base
		tc.mut(&cfg)
		if _, err := Generate(Zipf, cfg); err == nil {
			t.Errorf("%s: validation accepted %+v", tc.name, cfg)
		}
	}
}

// TestAdversarialSmallN: the degenerate paths (tiny partitions, n < P)
// still emit in-range keys.
func TestAdversarialSmallN(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{3, 8}, {8, 8}, {17, 4}, {64, 64}} {
		keys := MustGenerate(Adversarial, GenConfig{N: tc.n, Procs: tc.p, RadixBits: 8, Seed: 1})
		if len(keys) != tc.n {
			t.Fatalf("n=%d p=%d: got %d keys", tc.n, tc.p, len(keys))
		}
		for i, k := range keys {
			if uint64(k) >= MaxKey {
				t.Errorf("n=%d p=%d: key[%d]=%d out of range", tc.n, tc.p, i, k)
			}
		}
	}
}

func ExampleParseDist_skew() {
	for _, name := range []string{"zipf", "selfsim", "dupheavy", "adversarial"} {
		d, _ := ParseDist(name)
		fmt.Println(d.String())
	}
	// Output:
	// zipf
	// selfsim
	// dupheavy
	// adversarial
}
