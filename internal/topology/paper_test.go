package topology

import (
	"math"
	"testing"
)

// TestPaperLatencyNumbers pins the Origin2000 latency model against the
// numbers the paper (and the Origin2000 documentation) quote: 313 ns to
// local memory, ~100 ns per router hop, and the furthest/average remote
// latencies on the 64-processor machine (32 nodes on a 16-router
// hypercube). Any change to the topology arithmetic that moves these
// fails loudly, since every simulated remote access is priced on top of
// them.
func TestPaperLatencyNumbers(t *testing.T) {
	top := origin64(t)

	// 64 procs → 32 nodes → 16 routers → dimension-4 hypercube.
	if top.Nodes() != 32 || top.Routers() != 16 || top.MaxHops() != 4 {
		t.Fatalf("machine shape: nodes=%d routers=%d dim=%d, want 32/16/4",
			top.Nodes(), top.Routers(), top.MaxHops())
	}

	cases := []struct {
		name     string
		from, to int // node ids
		hops     int
		wantNs   float64
	}{
		// Local memory: the paper's 313 ns.
		{"local", 0, 0, 0, 313},
		// Neighbor node on the same router: remote base, zero extra hops.
		{"same-router", 0, 1, 0, 600},
		// Routers 0 and 1: Hamming distance 1 → +100 ns.
		{"one-hop", 0, 2, 1, 700},
		// Routers 1 and 2 (01 vs 10): Hamming distance 2.
		{"two-hops", 2, 4, 2, 800},
		// Routers 0 and 7 (0000 vs 0111): Hamming distance 3.
		{"three-hops", 0, 14, 3, 900},
		// Routers 0 and 15 (0000 vs 1111): the far corner of the cube.
		{"four-hops-corner", 0, 30, 4, 1000},
		// Routers 2 and 13 (0010 vs 1101): complementary ids, also 4 hops.
		{"four-hops-complement", 5, 27, 4, 1000},
	}
	for _, c := range cases {
		if got := top.Hops(c.from, c.to); got != c.hops {
			t.Errorf("%s: Hops(%d,%d) = %d, want %d", c.name, c.from, c.to, got, c.hops)
		}
		if got := top.ReadLatency(c.from, c.to); got != c.wantNs {
			t.Errorf("%s: ReadLatency(%d,%d) = %v ns, want %v ns", c.name, c.from, c.to, got, c.wantNs)
		}
		// Latency is symmetric on the hypercube.
		if got := top.ReadLatency(c.to, c.from); got != c.wantNs {
			t.Errorf("%s: ReadLatency(%d,%d) = %v ns, want %v ns (symmetry)", c.name, c.to, c.from, got, c.wantNs)
		}
	}

	// The model's extremes against the machine's published figures. The
	// calibration (600 ns base + 100 ns/hop) lands within 1% of both the
	// 1010 ns furthest-memory and 796 ns average-memory numbers.
	if got := top.FurthestReadLatency(); got != 1000 {
		t.Errorf("FurthestReadLatency = %v ns, want 1000 ns", got)
	}
	if got, published := top.FurthestReadLatency(), 1010.0; math.Abs(got-published)/published > 0.01 {
		t.Errorf("FurthestReadLatency = %v ns, >1%% from the published %v ns", got, published)
	}
	if got := top.AverageReadLatency(); got != 791.03125 {
		t.Errorf("AverageReadLatency = %v ns, want 791.03125 ns", got)
	}
	if got, published := top.AverageReadLatency(), 796.0; math.Abs(got-published)/published > 0.01 {
		t.Errorf("AverageReadLatency = %v ns, >1%% from the published %v ns", got, published)
	}

	// +100 ns per hop, exactly, across every node pair: the latency
	// model is an affine function of hop count and nothing else.
	for a := 0; a < top.Nodes(); a++ {
		for b := 0; b < top.Nodes(); b++ {
			if a == b {
				continue
			}
			want := 600 + 100*float64(top.Hops(a, b))
			if got := top.ReadLatency(a, b); got != want {
				t.Fatalf("ReadLatency(%d,%d) = %v, want %v (600 + 100/hop)", a, b, got, want)
			}
		}
	}
}
