// Skewed and adversarial key distributions (SkewDists), added on top of
// the paper's eight §3.3 initializations to stress splitter selection
// and duplicate handling: Zipf, SelfSim (80/20), DupHeavy (k distinct
// values) and Adversarial (splitter-defeating). All are deterministic
// given GenConfig; Zipf, SelfSim and DupHeavy are single sequential
// streams and therefore independent of Procs, while Adversarial is
// constructed per processor block by design.
package keys

import (
	"math"
	"sort"
)

const (
	// zipfRanks is the fixed rank-table size of the Zipf generator.
	// Keeping it independent of N makes the value stream a pure function
	// of Seed, truncated at N.
	zipfRanks = 1024
	// zipfS is the Zipf exponent s.
	zipfS = 1.2
	// dupValues is the number of distinct values DupHeavy draws from.
	dupValues = 16
)

// fillZipf draws each key from a Zipf(s) rank-frequency law over
// zipfRanks ranks. Rank r (1-based) has weight r^-s; ranks are mapped
// to key values by an independent uniform table, so the popular values
// are scattered across the key space rather than clustered at one end.
//
// The cumulative weight table uses float64, but it is built by plain
// IEEE additions over math.Pow outputs of the portable math package,
// so the stream is reproducible for a given Go toolchain/platform pair;
// the golden-pin test catches accidental stream changes.
func fillZipf(out []uint32, cfg GenConfig) {
	cum := make([]float64, zipfRanks)
	total := 0.0
	for r := 0; r < zipfRanks; r++ {
		total += math.Pow(float64(r+1), -zipfS)
		cum[r] = total
	}
	vals := make([]uint32, zipfRanks)
	h := &splitmix64{x: cfg.Seed ^ 0x21bf5ca1ab1e}
	for r := range vals {
		vals[r] = uint32(h.uniform(MaxKey))
	}
	g := &splitmix64{x: cfg.Seed ^ 0x21bf11235813}
	for i := range out {
		u := float64(g.next()>>11) / (1 << 53) * total
		r := sort.SearchFloat64s(cum, u)
		if r >= zipfRanks {
			r = zipfRanks - 1
		}
		out[i] = vals[r]
	}
}

// fillSelfSim draws each key from a self-similar 80/20 law: starting
// from the full key range, 80% of the probability mass recursively
// falls in the lowest fifth of the remaining range. Integer-only, so
// the stream is identical on every platform.
func fillSelfSim(out []uint32, cfg GenConfig) {
	g := &splitmix64{x: cfg.Seed ^ 0x80802020f00d}
	for i := range out {
		lo, w := uint64(0), MaxKey
		for w >= 5 {
			fifth := w / 5
			if g.uniform(5) < 4 {
				w = fifth
			} else {
				lo += fifth
				w -= fifth
			}
		}
		out[i] = uint32(lo + g.uniform(w))
	}
}

// fillDupHeavy draws each key uniformly from dupValues distinct values,
// one per key-space stratum (so the values are guaranteed distinct and
// spread).
func fillDupHeavy(out []uint32, cfg GenConfig) {
	g := &splitmix64{x: cfg.Seed ^ 0xd0d0d0d0beef}
	var vals [dupValues]uint32
	for j := range vals {
		lo := uint64(j) * MaxKey / dupValues
		hi := uint64(j+1) * MaxKey / dupValues
		vals[j] = uint32(lo + g.uniform(hi-lo))
	}
	for i := range out {
		out[i] = vals[g.uniform(dupValues)]
	}
}

// fillAdversarial builds the splitter-defeating distribution.
//
// Sample sort selects its per-processor samples at fixed positions of
// the locally sorted partition (SampleRank: (j+1)*np/(S+1)), so
// any mass confined to ranks strictly between two consecutive sample
// positions is invisible to every sample. Each processor therefore
// hides its entire middle inter-sample gap — about np/(S+1) keys — in
// one narrow value band shared by all processors. The band sits in the
// middle of the inter-sample gap in value space too, far from the
// sample-value clusters the splitters are drawn from, so no splitter
// can land inside it: every processor's hidden run lands in a single
// destination partition, whose receive count exceeds the mean by about
// a factor of Procs/(S+1). Radix sort's redistribution writes into the
// globally balanced blocked layout, so its receive counts stay flat on
// the same keys.
//
// The construction takes the sampler's own geometry (SampleCount,
// SampleRank) and is per-block deterministic: block i depends only on
// (N, Procs, Seed, AdvSamples, i).
func fillAdversarial(out []uint32, cfg GenConfig) {
	p := cfg.Procs
	n := len(out)
	sEff := SampleCount(cfg.AdvSamples, n, p)
	// The global hidden band: centered mid-gap between sample m-1 and
	// sample m in value space (m the middle sample index), width 2^20
	// (clamped for tiny ranges) so the low bits stay uniform.
	m := sEff / 2
	mid := MaxKey * uint64(2*m+1) / (2 * uint64(sEff+1))
	w := uint64(1) << 20
	if gapW := MaxKey / uint64(sEff+1); w > gapW/2 {
		w = gapW / 2
	}
	if w == 0 {
		w = 1
	}
	bandLo, bandHi := mid-w/2, mid+(w+1)/2
	for proc := 0; proc < p; proc++ {
		lo, hi := Bounds(n, p, proc)
		fillAdvBlock(out[lo:hi], cfg.Seed, proc, sEff, m, bandLo, bandHi)
	}
}

// fillAdvBlock fills one processor's partition: uniform cover below and
// above the band, plus the hidden run occupying exactly the ranks
// strictly between sample positions m-1 and m, then shuffles the block
// so the input is not pre-sorted.
func fillAdvBlock(part []uint32, seed uint64, proc, sEff, m int, bandLo, bandHi uint64) {
	np := len(part)
	g := &splitmix64{x: seed ^ 0xadd5a1e50a77ac ^ uint64(proc)*0x9e3779b97f4a7c15}
	count := min(sEff, np)
	// Sample j sits at local sorted rank SampleRank(j, np, count). Hidden
	// ranks are those strictly between samples m-1 and m (when m == 0,
	// the run before sample 0, which no sample observes either).
	hideLo, hideHi := SampleRank(m-1, np, count), SampleRank(m, np, count)
	if m > 0 {
		hideLo++
	}
	if hideHi <= hideLo || count < 2 || bandLo == 0 {
		// Degenerate (tiny partitions, total sampling): plain uniform.
		for i := range part {
			part[i] = uint32(g.uniform(MaxKey))
		}
		return
	}
	// Assign values by sorted rank: cover strata below [0, bandLo) and
	// above [bandHi, MaxKey), hidden run inside the band.
	below := hideLo
	above := np - hideHi
	for i := 0; i < below; i++ {
		sLo := uint64(i) * bandLo / uint64(below)
		sHi := uint64(i+1) * bandLo / uint64(below)
		part[i] = uint32(sLo + g.uniform(sHi-sLo))
	}
	for i := hideLo; i < hideHi; i++ {
		part[i] = uint32(bandLo + g.uniform(bandHi-bandLo))
	}
	span := MaxKey - bandHi
	for i := 0; i < above; i++ {
		sLo := bandHi + uint64(i)*span/uint64(above)
		sHi := bandHi + uint64(i+1)*span/uint64(above)
		part[i+hideHi] = uint32(sLo + g.uniform(sHi-sLo))
	}
	// Fisher-Yates so the emitted block is not already sorted.
	for i := np - 1; i > 0; i-- {
		j := int(g.uniform(uint64(i + 1)))
		part[i], part[j] = part[j], part[i]
	}
}
