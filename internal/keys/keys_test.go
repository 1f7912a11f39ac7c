package keys

import (
	"testing"
	"testing/quick"
)

func gen(t *testing.T, d Dist, n, procs, r int) []uint32 {
	t.Helper()
	out, err := Generate(d, GenConfig{N: n, Procs: procs, RadixBits: r})
	if err != nil {
		t.Fatalf("Generate(%v): %v", d, err)
	}
	return out
}

func TestAllDistsInRange(t *testing.T) {
	for _, d := range AllDists {
		keys := gen(t, d, 10000, 8, 8)
		if len(keys) != 10000 {
			t.Errorf("%v: got %d keys", d, len(keys))
		}
		for i, k := range keys {
			if uint64(k) >= MaxKey {
				t.Errorf("%v: key[%d] = %d out of range", d, i, k)
				break
			}
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for _, d := range AllDists {
		a := gen(t, d, 1000, 4, 8)
		b := gen(t, d, 1000, 4, 8)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%v: generation not deterministic at %d", d, i)
				break
			}
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a, _ := Generate(Random, GenConfig{N: 1000, Procs: 4, RadixBits: 8, Seed: 1})
	b, _ := Generate(Random, GenConfig{N: 1000, Procs: 4, RadixBits: 8, Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d/1000 identical keys", same)
	}
}

func TestGaussShape(t *testing.T) {
	keys := gen(t, Gauss, 100000, 8, 8)
	// Mean near MaxKey/2 and mass concentrated in the middle half: the
	// average of four uniforms has std ~ range/(4*sqrt(3)).
	var sum float64
	mid := 0
	for _, k := range keys {
		sum += float64(k)
		if uint64(k) > MaxKey/4 && uint64(k) < 3*MaxKey/4 {
			mid++
		}
	}
	mean := sum / float64(len(keys))
	if mean < float64(MaxKey)*0.45 || mean > float64(MaxKey)*0.55 {
		t.Errorf("gauss mean %v far from MaxKey/2", mean)
	}
	if frac := float64(mid) / float64(len(keys)); frac < 0.90 {
		t.Errorf("gauss middle-half mass = %v, want > 0.90", frac)
	}
}

func TestRandomShape(t *testing.T) {
	keys := gen(t, Random, 100000, 8, 8)
	// Uniform: quarter of the keys in each quarter of the range.
	quarters := [4]int{}
	for _, k := range keys {
		quarters[uint64(k)/(MaxKey/4)]++
	}
	for q, c := range quarters {
		frac := float64(c) / float64(len(keys))
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("random quarter %d holds %v of keys, want ~0.25", q, frac)
		}
	}
}

func TestZeroEveryTenth(t *testing.T) {
	keys := gen(t, Zero, 1000, 8, 8)
	zeros := 0
	for _, k := range keys {
		if k == 0 {
			zeros++
		}
	}
	if zeros < 100 {
		t.Errorf("zero distribution has %d zeros in 1000, want >= 100", zeros)
	}
}

func TestHalfAllEven(t *testing.T) {
	keys := gen(t, Half, 10000, 8, 8)
	for i, k := range keys {
		if k%2 != 0 {
			t.Fatalf("half: key[%d] = %d is odd", i, k)
		}
	}
}

func TestBucketRunsAreRanged(t *testing.T) {
	const n, p = 6400, 8
	keys := gen(t, Bucket, n, p, 8)
	width := MaxKey / p
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(n, p, proc)
		part := keys[lo:hi]
		for j := 0; j < p; j++ {
			rlo, rhi := Bounds(len(part), p, j)
			for i := rlo; i < rhi; i++ {
				v := uint64(part[i])
				if v < uint64(j)*width || v >= uint64(j+1)*width {
					t.Fatalf("bucket: proc %d run %d key %d outside its range", proc, j, v)
				}
			}
		}
	}
}

func TestStaggerBands(t *testing.T) {
	const n, p = 8000, 8
	keys := gen(t, Stagger, n, p, 8)
	width := MaxKey / p
	for proc := 0; proc < p; proc++ {
		var band uint64
		if proc < p/2 {
			band = uint64(2*proc + 1)
		} else {
			band = uint64(2*proc - p)
		}
		lo, hi := Bounds(n, p, proc)
		for i := lo; i < hi; i++ {
			v := uint64(keys[i])
			if v < band*width || v >= (band+1)*width {
				t.Fatalf("stagger: proc %d key %d outside band %d", proc, v, band)
			}
		}
	}
	// Every processor's band differs from its own index: all keys move.
	for proc := 0; proc < p; proc++ {
		var band int
		if proc < p/2 {
			band = 2*proc + 1
		} else {
			band = 2*proc - p
		}
		if band == proc {
			t.Errorf("stagger: proc %d keeps its own band", proc)
		}
	}
}

func TestLocalKeysStayHome(t *testing.T) {
	const n, p, r = 8000, 8, 8
	keys := gen(t, Local, n, p, r)
	bucketsPerProc := (1 << r) / p
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(n, p, proc)
		for i := lo; i < hi; i++ {
			k := keys[i]
			// Every r-bit digit must fall in proc's own digit range.
			for shift := 0; shift < 31; shift += r {
				d := int(k>>shift) & ((1 << r) - 1)
				dLo, dHi := proc*bucketsPerProc, (proc+1)*bucketsPerProc
				// The top partial digit is truncated by the 31-bit mask;
				// skip ranges that can't hold a full digit.
				if shift+r > 31 {
					continue
				}
				if d < dLo || d >= dHi {
					t.Fatalf("local: proc %d key %#x digit@%d = %d outside [%d,%d)",
						proc, k, shift, d, dLo, dHi)
				}
			}
		}
	}
}

func TestRemoteFirstDigitAvoidsHome(t *testing.T) {
	const n, p, r = 8000, 8, 8
	keys := gen(t, Remote, n, p, r)
	bucketsPerProc := (1 << r) / p
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(n, p, proc)
		for i := lo; i < hi; i++ {
			d := int(keys[i]) & ((1 << r) - 1)
			dLo, dHi := proc*bucketsPerProc, (proc+1)*bucketsPerProc
			if d >= dLo && d < dHi {
				t.Fatalf("remote: proc %d key %#x first digit %d inside own range [%d,%d)",
					proc, keys[i], d, dLo, dHi)
			}
			// Second digit hits the own range.
			d2 := int(keys[i]>>r) & ((1 << r) - 1)
			if d2 < dLo || d2 >= dHi {
				t.Fatalf("remote: proc %d key %#x second digit %d outside own range",
					proc, keys[i], d2)
			}
		}
	}
}

func TestRemoteSortedWithinProcChunks(t *testing.T) {
	// The paper notes remote data has good locality in the local sort
	// because, by construction, each processor's keys concentrate in few
	// second-digit buckets. Verify the second digit is constant-ish per
	// processor (single bucket range).
	const n, p, r = 1000, 4, 8
	keys := gen(t, Remote, n, p, r)
	bucketsPerProc := (1 << r) / p
	lo, hi := Bounds(n, p, 2)
	for i := lo; i < hi; i++ {
		d2 := int(keys[i]>>r) & ((1 << r) - 1)
		if d2/bucketsPerProc != 2 {
			t.Fatalf("remote: proc 2 second digit bucket = %d, want own group", d2/bucketsPerProc)
		}
	}
}

func TestParseDist(t *testing.T) {
	for _, d := range AllDists {
		got, err := ParseDist(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDist(%q) = %v, %v", d.String(), got, err)
		}
	}
	if got, err := ParseDist("GAUSS"); err != nil || got != Gauss {
		t.Errorf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParseDist("bogus"); err == nil {
		t.Error("ParseDist accepted bogus name")
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []GenConfig{
		{N: 0, Procs: 4, RadixBits: 8},
		{N: 100, Procs: 0, RadixBits: 8},
		{N: 100, Procs: 4, RadixBits: 0},
		{N: 100, Procs: 4, RadixBits: 20},
	}
	for _, c := range cases {
		if _, err := Generate(Gauss, c); err == nil {
			t.Errorf("accepted invalid config %+v", c)
		}
	}
}

func TestNASLCGPeriodicityBasics(t *testing.T) {
	g := newNASLCG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := g.next()
		if v >= nasMod {
			t.Fatalf("LCG value %d exceeds 2^46", v)
		}
		if seen[v] {
			t.Fatalf("LCG repeated after %d steps", i)
		}
		seen[v] = true
	}
}

func TestBoundsPartition(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%1000 + 1
		k := int(kRaw)%16 + 1
		prevHi := 0
		total := 0
		for i := 0; i < k; i++ {
			lo, hi := Bounds(n, k, i)
			if lo != prevHi || hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate did not panic on invalid config")
		}
	}()
	MustGenerate(Gauss, GenConfig{})
}
