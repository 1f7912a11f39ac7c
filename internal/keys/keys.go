// Package keys implements the eight key initialization methods of the
// paper's §3.3: Gauss, Random, Zero, Bucket, Stagger, Half, Remote and
// Local. Keys are 31-bit unsigned integers (MAX = 2^31), and every
// method is deterministic given its configuration, so experiments are
// exactly repeatable.
package keys

import (
	"fmt"
	"strings"
)

// KeyBits is the key width of the paper's programs (§3.3): keys are
// unsigned and below MaxKey = 2^KeyBits.
const KeyBits = 31

// MaxKey is the exclusive upper bound of key values (2^31), as in the
// paper.
const MaxKey = uint64(1) << KeyBits

// Passes returns how many radix-r digits cover a key: ⌈KeyBits/r⌉, the
// paper's 32/r with 31-bit keys. Every radix sort makes that many
// counting passes.
func Passes(r int) int { return (KeyBits + r - 1) / r }

// DefaultSamples is sample sort's per-processor regular sample count,
// the paper's 128.
const DefaultSamples = 128

// SampleCount returns how many regular samples each processor of a
// sample sort over n keys on procs processors takes when samples are
// asked for (0 selects DefaultSamples): at most one per key of an
// average partition, and at least one. The sorter and the Adversarial
// generator, which must hide keys between its samples, both ask here.
func SampleCount(samples, n, procs int) int {
	if samples == 0 {
		samples = DefaultSamples
	}
	return min(samples, max(1, n/procs))
}

// SampleRank returns the local rank of sample j when count regular
// samples are taken from a sorted run of n ≥ count keys: (j+1)·n/(count+1),
// the interior points of count+1 equal gaps, avoiding both ends (the
// regular-sampling step of BSP sample sorts).
func SampleRank(j, n, count int) int { return (j + 1) * n / (count + 1) }

// Dist names a key distribution.
type Dist int

const (
	// Gauss is the NAS/SPLASH-2 default: each key is the average of four
	// consecutive outputs of the NAS 46-bit linear congruential generator.
	Gauss Dist = iota
	// Random is uniform over [0, 2^31) (the C library random() stand-in).
	Random
	// Zero is Random with every tenth key forced to zero.
	Zero
	// Bucket pre-sorts coarsely: each processor's partition is split into
	// p runs, run j drawn from [j*MAX/p, (j+1)*MAX/p).
	Bucket
	// Stagger gives processor i keys from a single remote value band.
	Stagger
	// Half is Gauss restricted to even keys (halves the message count in
	// radix sort while keeping data volume fixed).
	Half
	// Remote maximizes inter-processor key movement in radix sort: each
	// radix-r digit of a key avoids (even digits) or hits (odd digits)
	// the generating processor's own digit range.
	Remote
	// Local eliminates key movement: every digit of every key falls in
	// the generating processor's own digit range.
	Local
	// Zipf draws keys from a Zipf(s) rank-frequency law over a fixed
	// table of ranks: a few values dominate, with a long duplicate-heavy
	// tail (exponent s = 1.2).
	Zipf
	// SelfSim is a self-similar 80/20 distribution: at every scale, 80%
	// of the keys fall in the lowest fifth of the remaining value range.
	SelfSim
	// DupHeavy draws uniformly from 16 distinct values.
	DupHeavy
	// Adversarial defeats sample sort's splitter selection: each
	// processor hides a full inter-sample gap of keys inside one narrow
	// global value band that no regularly-positioned sample can observe,
	// so one destination partition receives every processor's hidden run
	// while radix sort's blocked redistribution stays perfectly flat.
	Adversarial
)

// AllDists lists the distributions in the paper's figure order. The
// skewed/adversarial additions live in SkewDists instead, so the paper
// figures (5 and 9) and their goldens are unchanged.
var AllDists = []Dist{Gauss, Random, Zero, Bucket, Stagger, Remote, Half, Local}

// SkewDists lists the adversarial and skewed distributions added on top
// of the paper's eight (§3.3), in figskew order.
var SkewDists = []Dist{Zipf, SelfSim, DupHeavy, Adversarial}

// String returns the lowercase name used in figures and flags.
func (d Dist) String() string {
	switch d {
	case Gauss:
		return "gauss"
	case Random:
		return "random"
	case Zero:
		return "zero"
	case Bucket:
		return "bucket"
	case Stagger:
		return "stagger"
	case Half:
		return "half"
	case Remote:
		return "remote"
	case Local:
		return "local"
	case Zipf:
		return "zipf"
	case SelfSim:
		return "selfsim"
	case DupHeavy:
		return "dupheavy"
	case Adversarial:
		return "adversarial"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// ParseDist resolves a distribution name (case-insensitive).
func ParseDist(s string) (Dist, error) {
	for _, list := range [][]Dist{AllDists, SkewDists} {
		for _, d := range list {
			if strings.EqualFold(s, d.String()) {
				return d, nil
			}
		}
	}
	return 0, fmt.Errorf("keys: unknown distribution %q", s)
}

// GenConfig parameterizes generation.
type GenConfig struct {
	// N is the total key count.
	N int
	// Procs is the number of processors the keys are initially
	// partitioned across (partition i is [i*N/Procs, (i+1)*N/Procs)).
	Procs int
	// RadixBits is the radix size r, which shapes the Remote and Local
	// distributions.
	RadixBits int
	// Seed perturbs the generators; 0 is a valid, fixed default.
	Seed uint64
	// AdvSamples is the per-processor sample count the Adversarial
	// construction assumes the sorter will take (0 means DefaultSamples,
	// the sorter's default too). The attack is strongest when this
	// matches the sorter's actual SampleSize.
	AdvSamples int
}

// MaxRadixBits is the largest radix size the generators, the sorting
// programs and every front end accept: a 2^16-entry histogram per
// processor is past anything the paper studies (6..14 bits).
const MaxRadixBits = 16

// Validate reports whether Generate accepts c.
func (c GenConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("keys: N must be positive, got %d", c.N)
	}
	if c.Procs <= 0 {
		return fmt.Errorf("keys: Procs must be positive, got %d", c.Procs)
	}
	if c.RadixBits < 1 || c.RadixBits > MaxRadixBits {
		return fmt.Errorf("keys: RadixBits must be in [1,%d], got %d", MaxRadixBits, c.RadixBits)
	}
	if c.AdvSamples < 0 || c.AdvSamples > 1<<20 {
		return fmt.Errorf("keys: AdvSamples must be in [0,2^20], got %d", c.AdvSamples)
	}
	return nil
}

// nasLCG is the NAS parallel benchmarks' 46-bit linear congruential
// generator: x_{k+1} = a*x_k mod 2^46, a = 5^13, x_0 = 314159265 (the
// paper prints the multiplier as "513", i.e. 5^13).
type nasLCG struct {
	x uint64
}

const (
	nasA    = 1220703125 // 5^13
	nasMod  = uint64(1) << 46
	nasMask = nasMod - 1
)

func newNASLCG(seed uint64) *nasLCG {
	x := (uint64(314159265) + seed) & nasMask
	if x == 0 {
		x = 314159265
	}
	return &nasLCG{x: x}
}

// next returns the next raw 46-bit value.
func (g *nasLCG) next() uint64 {
	g.x = (g.x * nasA) & nasMask
	return g.x
}

// splitmix64 is the uniform generator standing in for the C library
// random(): a standard 64-bit mixer with excellent equidistribution.
type splitmix64 struct {
	x uint64
}

func (s *splitmix64) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a value in [0, bound) without modulo bias beyond
// 2^-32 (bound is always << 2^32 here).
func (s *splitmix64) uniform(bound uint64) uint64 {
	if bound == 0 {
		return 0
	}
	return (s.next() >> 16) % bound
}

// Generate returns N keys initialized with distribution d.
func Generate(d Dist, cfg GenConfig) ([]uint32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]uint32, cfg.N)
	switch d {
	case Gauss:
		fillGauss(out, cfg, false)
	case Half:
		fillGauss(out, cfg, true)
	case Random:
		fillRandom(out, cfg, false)
	case Zero:
		fillRandom(out, cfg, true)
	case Bucket:
		fillBucket(out, cfg)
	case Stagger:
		fillStagger(out, cfg)
	case Remote:
		fillDigitPattern(out, cfg, true)
	case Local:
		fillDigitPattern(out, cfg, false)
	case Zipf:
		fillZipf(out, cfg)
	case SelfSim:
		fillSelfSim(out, cfg)
	case DupHeavy:
		fillDupHeavy(out, cfg)
	case Adversarial:
		fillAdversarial(out, cfg)
	default:
		return nil, fmt.Errorf("keys: unknown distribution %d", int(d))
	}
	return out, nil
}

// MustGenerate is Generate for static experiment configurations.
func MustGenerate(d Dist, cfg GenConfig) []uint32 {
	out, err := Generate(d, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

func fillGauss(out []uint32, cfg GenConfig, evenOnly bool) {
	g := newNASLCG(cfg.Seed)
	for i := range out {
		// Average of four consecutive uniform deviates, scaled to
		// [0, MaxKey): a bell-shaped density centered at MaxKey/2.
		sum := g.next()>>15 + g.next()>>15 + g.next()>>15 + g.next()>>15
		// Each term is 31 bits; the average of four is 31 bits.
		k := uint32(sum / 4)
		if evenOnly {
			k &^= 1
		}
		out[i] = k
	}
}

func fillRandom(out []uint32, cfg GenConfig, zeroTenth bool) {
	g := &splitmix64{x: cfg.Seed ^ 0xa5a5a5a5deadbeef}
	for i := range out {
		out[i] = uint32(g.uniform(MaxKey))
		if zeroTenth && i%10 == 9 {
			// "every tenth key is set to zero"
			out[i] = 0
		}
	}
}

func fillBucket(out []uint32, cfg GenConfig) {
	g := &splitmix64{x: cfg.Seed ^ 0xb0b0b0b0cafef00d}
	p := cfg.Procs
	width := MaxKey / uint64(p)
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(len(out), p, proc)
		part := out[lo:hi]
		// Split this processor's partition into p runs; run j draws from
		// bucket j's value range.
		for j := 0; j < p; j++ {
			rlo, rhi := Bounds(len(part), p, j)
			base := uint64(j) * width
			for i := rlo; i < rhi; i++ {
				part[i] = uint32(base + g.uniform(width))
			}
		}
	}
}

func fillStagger(out []uint32, cfg GenConfig) {
	g := &splitmix64{x: cfg.Seed ^ 0x57a99e125107}
	p := cfg.Procs
	width := MaxKey / uint64(p)
	for proc := 0; proc < p; proc++ {
		base := uint64(staggerBand(proc, p)) * width
		lo, hi := Bounds(len(out), p, proc)
		for i := lo; i < hi; i++ {
			out[i] = uint32(base + g.uniform(width))
		}
	}
}

// staggerBand is the one value band Stagger's processor proc of p draws
// all its keys from: band 2i+1 for the first half of the processors, and
// the even bands 2(i−⌊p/2⌋) for the rest (2i−p when p is even). The bands
// are a permutation of [0, p) at every p.
func staggerBand(proc, p int) int {
	if proc < p/2 {
		return 2*proc + 1
	}
	return 2 * (proc - p/2)
}

// Bounds returns the [lo,hi) range of chunk i when n items are split
// into k chunks: the blocked partition [i·n/k, (i+1)·n/k) by which keys
// are generated per processor and the sorting programs lay out their
// arrays.
func Bounds(n, k, i int) (lo, hi int) {
	return i * n / k, (i + 1) * n / k
}

// ownDigits returns processor proc's own digit range [lo, lo+width) of
// the 2^r radix-r digit values under Remote and Local: the proc-th of p
// equal ranges of ⌊2^r/p⌋ values, or, when there are more processors than
// digit values, the one value ⌊proc·2^r/p⌋ that p/2^r processors share.
func ownDigits(proc, p, r int) (lo, width uint64) {
	buckets := uint64(1) << r
	if uint64(p) > buckets {
		return uint64(proc) * buckets / uint64(p), 1
	}
	width = buckets / uint64(p)
	return uint64(proc) * width, width
}

func fillDigitPattern(out []uint32, cfg GenConfig, remote bool) {
	g := &splitmix64{x: cfg.Seed ^ 0x10ca1f1e1d5}
	r := cfg.RadixBits
	buckets, digits := uint64(1)<<r, Passes(r)
	for proc := 0; proc < cfg.Procs; proc++ {
		lo, hi := Bounds(len(out), cfg.Procs, proc)
		ownLo, width := ownDigits(proc, cfg.Procs, r)
		for i := lo; i < hi; i++ {
			var key uint64
			var even, odd uint64
			switch {
			case remote && width < buckets:
				// Even digit positions (1st, 3rd, ...) avoid the own
				// range; odd positions hit it.
				even = g.uniform(buckets - width)
				if even >= ownLo {
					even += width
				}
				odd = ownLo + g.uniform(width)
			case remote:
				// One processor owns every digit value: nothing to avoid.
				even, odd = g.uniform(width), g.uniform(width)
			default:
				// Local: every digit in the own range.
				even = ownLo + g.uniform(width)
				odd = even
			}
			for dpos := 0; dpos < digits; dpos++ {
				d := even
				if dpos%2 == 1 {
					d = odd
				}
				key |= d << (dpos * r)
			}
			out[i] = uint32(key & (MaxKey - 1))
		}
	}
}
