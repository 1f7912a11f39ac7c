package keys

import (
	"fmt"
	"testing"
)

// everyDist lists the paper's eight distributions and the skewed ones.
var everyDist = append(append([]Dist(nil), AllDists...), SkewDists...)

// contractViolation returns the first way the keys d generated under cfg
// break the generators' contract, or nil. There are cfg.N keys, each
// below MaxKey. Stagger's processor i draws from band staggerBand(i, P)
// only. Local and Remote obey the digit rule at every full digit
// position: a Local digit lies in the generating processor's own range
// (ownDigits); a Remote digit lies in it at odd positions and outside it
// at even ones, unless the range holds every digit value. And a
// processor with at least 64 keys whose first digit may take several
// values does not give all of them the same one.
func contractViolation(ks []uint32, d Dist, cfg GenConfig) error {
	if len(ks) != cfg.N {
		return fmt.Errorf("%d keys, want %d", len(ks), cfg.N)
	}
	for i, k := range ks {
		if uint64(k) >= MaxKey {
			return fmt.Errorf("key[%d] = %d ≥ MaxKey", i, k)
		}
	}
	p, r := cfg.Procs, cfg.RadixBits
	buckets, mask := uint64(1)<<r, uint32(1)<<r-1
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(cfg.N, p, proc)
		switch d {
		case Stagger:
			band, width := uint64(staggerBand(proc, p)), MaxKey/uint64(p)
			for i := lo; i < hi; i++ {
				if v := uint64(ks[i]); v < band*width || v >= (band+1)*width {
					return fmt.Errorf("processor %d: key %d outside band %d", proc, v, band)
				}
			}
		case Local, Remote:
			own, width := ownDigits(proc, p, r)
			first := map[uint32]bool{}
			for i := lo; i < hi; i++ {
				for pos := 0; (pos+1)*r <= KeyBits; pos++ {
					dig := uint64(ks[i] >> (pos * r) & mask)
					in := dig >= own && dig < own+width
					if want := d == Local || pos%2 == 1 || width == buckets; in != want {
						return fmt.Errorf("%v processor %d: key %#x digit %d = %d, own range [%d,%d)",
							d, proc, ks[i], pos, dig, own, width+own)
					}
				}
				first[ks[i]&mask] = true
			}
			choices := width
			if d == Remote && width < buckets {
				choices = buckets - width
			}
			if hi-lo >= 64 && choices > 1 && len(first) == 1 {
				return fmt.Errorf("%v processor %d: all %d keys share first digit %d of %d allowed",
					d, proc, hi-lo, ks[lo]&mask, choices)
			}
		}
	}
	return nil
}

func TestPasses(t *testing.T) {
	for _, c := range []struct{ radix, passes int }{
		{1, 31}, {6, 6}, {7, 5}, {8, 4}, {11, 3}, {12, 3}, {16, 2},
	} {
		if got := Passes(c.radix); got != c.passes {
			t.Errorf("Passes(%d) = %d, want %d", c.radix, got, c.passes)
		}
	}
}

// TestSampleGeometry: the sampler takes the requested count, or the
// default, clamped to one per key of an average partition and at least
// one, at interior ranks of count+1 equal gaps.
func TestSampleGeometry(t *testing.T) {
	for _, c := range []struct{ samples, n, procs, want int }{
		{0, 1 << 20, 64, DefaultSamples}, {16, 1 << 20, 64, 16}, {0, 4096, 64, 64},
		{200, 4096, 16, 200}, {16, 100, 64, 1}, {1, 1, 1, 1},
	} {
		if got := SampleCount(c.samples, c.n, c.procs); got != c.want {
			t.Errorf("SampleCount(%d, %d, %d) = %d, want %d", c.samples, c.n, c.procs, got, c.want)
		}
	}
	for _, n := range []int{1, 7, 100, 4096} {
		for _, count := range []int{1, n/2 + 1, n} {
			prev := -1
			for j := 0; j < count; j++ {
				rank := SampleRank(j, n, count)
				if rank <= prev || rank >= n {
					t.Errorf("n=%d count=%d: sample %d at rank %d after %d", n, count, j, rank, prev)
				}
				prev = rank
			}
		}
	}
}

// TestEveryDistInRange: every distribution at every listed processor
// count, odd ones and more processors than digit values included, and
// every listed digit size keeps the contract.
func TestEveryDistInRange(t *testing.T) {
	for _, d := range everyDist {
		for _, p := range []int{1, 2, 3, 4, 6, 8, 64, 128, 256, 1024} {
			for _, r := range []int{1, 4, 6, 8, 11, 16} {
				cfg := GenConfig{N: 4096, Procs: p, RadixBits: r, Seed: 7}
				if err := contractViolation(MustGenerate(d, cfg), d, cfg); err != nil {
					t.Errorf("%v P=%d r=%d: %v", d, p, r, err)
				}
			}
		}
	}
}

// TestOwnDigits: the own digit ranges are the paper's equal split while
// every processor can have one, and at most one shared digit value each
// when there are more processors than values; they never leave [0, 2^r).
func TestOwnDigits(t *testing.T) {
	for _, r := range []int{1, 4, 6, 8} {
		for _, p := range []int{1, 2, 3, 8, 64, 128, 1024} {
			buckets := uint64(1) << r
			for proc := 0; proc < p; proc++ {
				lo, width := ownDigits(proc, p, r)
				if lo+width > buckets || width == 0 {
					t.Fatalf("r=%d P=%d processor %d: own range [%d,%d) leaves [0,%d)", r, p, proc, lo, lo+width, buckets)
				}
				if uint64(p) <= buckets && (width != buckets/uint64(p) || lo != uint64(proc)*width) {
					t.Errorf("r=%d P=%d processor %d: own range [%d,%d), want the %dth of %d equal ranges", r, p, proc, lo, lo+width, proc, p)
				}
			}
		}
	}
	// Local's keys repeat one digit, so they take at most 2^r values.
	ks := MustGenerate(Local, GenConfig{N: 16384, Procs: 128, RadixBits: 6})
	distinct := map[uint32]bool{}
	for _, k := range ks {
		distinct[k] = true
	}
	if len(distinct) > 64 {
		t.Errorf("local at P=128, r=6: %d distinct keys, at most 64 possible", len(distinct))
	}
}

// FuzzGenerate explores distribution × size × processors × radix × seed ×
// sampler and checks the contract on every stream. The seeds are the
// three shapes that once broke it: Stagger at odd processor counts,
// Local with more processors than digit values, Remote on one
// processor.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(Stagger), uint16(4096), uint16(1), uint8(8), uint64(0), uint16(0))
	f.Add(uint8(Stagger), uint16(4096), uint16(3), uint8(8), uint64(0), uint16(0))
	f.Add(uint8(Local), uint16(16384), uint16(128), uint8(6), uint64(0), uint16(0))
	f.Add(uint8(Remote), uint16(16384), uint16(1), uint8(8), uint64(0), uint16(0))
	f.Add(uint8(Adversarial), uint16(8192), uint16(64), uint8(8), uint64(1), uint16(16))
	f.Fuzz(func(t *testing.T, dist uint8, n, procs uint16, r uint8, seed uint64, samples uint16) {
		d := Dist(int(dist) % len(everyDist)) // the Dist constants are 0, 1, …
		// Sizes, processor counts and radixes in range map to themselves.
		cfg := GenConfig{N: int(n-1)%20000 + 1, Procs: int(procs-1)%1024 + 1, RadixBits: int(r-1)%MaxRadixBits + 1,
			Seed: seed, AdvSamples: int(samples) % 512}
		ks, err := Generate(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := contractViolation(ks, d, cfg); err != nil {
			t.Fatalf("%v %+v: %v", d, cfg, err)
		}
	})
}
