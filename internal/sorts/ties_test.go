package sorts

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
)

func TestBoundariesSpreadTiedSplitters(t *testing.T) {
	m := scaled(t, 1)
	arr := machine.NewArrayOnProc[uint32](m, "t", 12, 0)
	copy(arr.Data, []uint32{0, 0, 0, 0, 0, 0, 0, 0, 5, 6, 7, 8})
	mustRun(t, m, func(p *machine.Proc) {
		// Three tied zero splitters + one at 6: without spreading, all
		// eight zeros funnel to one destination.
		b := boundariesOf(p, arr, 0, 12, []uint32{0, 0, 0, 6})
		// The zero-run [0,8) splits ~evenly across destinations 1..3.
		for j := 1; j <= 3; j++ {
			cnt := b[j+1] - b[j]
			if cnt < 2 || cnt > 4 {
				t.Errorf("tied destination %d got %d keys, want ~8/3", j, cnt)
			}
		}
		// Global order still holds: boundaries non-decreasing.
		for j := 1; j < len(b); j++ {
			if b[j] < b[j-1] {
				t.Fatalf("boundaries decreased: %v", b)
			}
		}
	})
}

func TestZeroDistributionBalancedAfterSpreading(t *testing.T) {
	// The zero distribution (10% duplicates of one value) must not pile
	// its duplicates on a single processor.
	const n, procs = 1 << 15, 8
	in := genKeys(t, keys.Zero, n, procs, 8)
	m := scaled(t, procs)
	res, err := SampleCCSAS(m, in, Config{Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, res)
	// With ties spread, the busiest processor's localsort2 phase stays
	// within a small factor of the mean.
	var total, maxT float64
	for _, ps := range res.Run.PerProc {
		v := ps.Phases["localsort2"].Total()
		total += v
		if v > maxT {
			maxT = v
		}
	}
	mean := total / float64(procs)
	if maxT > 2.5*mean {
		t.Errorf("localsort2 imbalance: max %v vs mean %v", maxT, mean)
	}
}
