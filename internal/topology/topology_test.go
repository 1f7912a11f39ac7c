package topology

import (
	"math"
	"testing"
	"testing/quick"
)

// origin64 is the full-size Origin2000 configuration used throughout the
// tests: 64 processors, 2 per node, node pairs on routers, 16-router
// hypercube.
func origin64(t *testing.T) Network {
	t.Helper()
	top, err := New(Config{Processors: 64, ProcsPerNode: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return top
}

func TestOriginShape(t *testing.T) {
	top := origin64(t)
	if got := top.Nodes(); got != 32 {
		t.Errorf("Nodes() = %d, want 32", got)
	}
	if got := top.Routers(); got != 16 {
		t.Errorf("Routers() = %d, want 16", got)
	}
	if got := top.MaxHops(); got != 4 {
		t.Errorf("MaxHops() = %d, want 4", got)
	}
	if got := top.Processors(); got != 64 {
		t.Errorf("Processors() = %d, want 64", got)
	}
}

func TestNodeOf(t *testing.T) {
	top := origin64(t)
	cases := []struct{ proc, node int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {62, 31}, {63, 31},
	}
	for _, c := range cases {
		if got := top.NodeOf(c.proc); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.proc, got, c.node)
		}
	}
}

func TestHopsSameRouter(t *testing.T) {
	top := origin64(t)
	if got := top.Hops(0, 1); got != 0 {
		t.Errorf("Hops(0,1) = %d, want 0 (same router)", got)
	}
	if got := top.Hops(0, 0); got != 0 {
		t.Errorf("Hops(0,0) = %d, want 0", got)
	}
}

func TestHopsHammingDistance(t *testing.T) {
	top := origin64(t)
	// Node 2 is on router 1, node 0 on router 0: routers differ in one bit.
	if got := top.Hops(0, 2); got != 1 {
		t.Errorf("Hops(0,2) = %d, want 1", got)
	}
	// Node 30 is on router 15 (0b1111), node 0 on router 0: 4 bits differ.
	if got := top.Hops(0, 30); got != 4 {
		t.Errorf("Hops(0,30) = %d, want 4", got)
	}
}

func TestHopsSymmetric(t *testing.T) {
	top := origin64(t)
	f := func(a, b uint8) bool {
		na := int(a) % top.Nodes()
		nb := int(b) % top.Nodes()
		return top.Hops(na, nb) == top.Hops(nb, na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	top := origin64(t)
	f := func(a, b, c uint8) bool {
		na := int(a) % top.Nodes()
		nb := int(b) % top.Nodes()
		nc := int(c) % top.Nodes()
		return top.Hops(na, nc) <= top.Hops(na, nb)+top.Hops(nb, nc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopsBoundedByDimension(t *testing.T) {
	top := origin64(t)
	for a := 0; a < top.Nodes(); a++ {
		for b := 0; b < top.Nodes(); b++ {
			if h := top.Hops(a, b); h < 0 || h > top.MaxHops() {
				t.Fatalf("Hops(%d,%d) = %d outside [0,%d]", a, b, h, top.MaxHops())
			}
		}
	}
}

func TestReadLatencyShape(t *testing.T) {
	top := origin64(t)
	local := top.ReadLatency(0, 0)
	if local != 313 {
		t.Errorf("local latency = %v, want 313", local)
	}
	furthest := top.FurthestReadLatency()
	if furthest != 600+4*100 {
		t.Errorf("furthest latency = %v, want 1000", furthest)
	}
	avg := top.AverageReadLatency()
	// The Origin2000 documentation quotes ~796 ns for the average of local
	// and all remote memories on a 64-processor machine. Our calibration
	// should land within 10%.
	if math.Abs(avg-796) > 79.6 {
		t.Errorf("average latency = %v, want within 10%% of 796", avg)
	}
	if !(local < avg && avg < furthest) {
		t.Errorf("want local < average < furthest, got %v, %v, %v", local, avg, furthest)
	}
}

func TestReadLatencyMonotonicInHops(t *testing.T) {
	top := origin64(t)
	for a := 0; a < top.Nodes(); a++ {
		for b := 0; b < top.Nodes(); b++ {
			if a == b {
				continue
			}
			lat := top.ReadLatency(a, b)
			want := 600 + 100*float64(top.Hops(a, b))
			if lat != want {
				t.Fatalf("ReadLatency(%d,%d) = %v, want %v", a, b, lat, want)
			}
		}
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %v, want 0", got)
	}
	if got := TransferTime(-5); got != 0 {
		t.Errorf("TransferTime(-5) = %v, want 0", got)
	}
	// 800 bytes at 0.8 bytes/ns = 1000 ns.
	if got := TransferTime(800); got != 1000 {
		t.Errorf("TransferTime(800) = %v, want 1000", got)
	}
}

func TestTransferTimeAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		sum := TransferTime(int(a)) + TransferTime(int(b))
		joint := TransferTime(int(a) + int(b))
		return math.Abs(sum-joint) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	base := Config{Processors: 64, ProcsPerNode: 2}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }},
		{"negative processors", func(c *Config) { c.Processors = -4 }},
		{"zero procs per node", func(c *Config) { c.ProcsPerNode = 0 }},
		{"non-multiple", func(c *Config) { c.Processors = 63 }},
		{"non-power-of-two routers", func(c *Config) { c.Processors = 24 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted invalid config %+v", cfg)
			}
		})
	}
}

func TestSmallMachines(t *testing.T) {
	// Single node machine: everything is local, zero hops.
	top, err := New(Config{Processors: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if top.Nodes() != 1 || top.Routers() != 1 || top.MaxHops() != 0 {
		t.Errorf("single-node shape wrong: nodes=%d routers=%d dim=%d",
			top.Nodes(), top.Routers(), top.MaxHops())
	}
	if got := top.FurthestReadLatency(); got != 313 {
		t.Errorf("single-node furthest latency = %v, want local 313", got)
	}
}

func TestNodeOfPanicsOutOfRange(t *testing.T) {
	top := origin64(t)
	for _, p := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeOf(%d) did not panic", p)
				}
			}()
			top.NodeOf(p)
		}()
	}
}

// TestNodePairPanicsOutOfRange: a node id outside [0, Nodes()) must
// never read another pair's table entry.
func TestNodePairPanicsOutOfRange(t *testing.T) {
	top := origin64(t)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {32, 0}, {0, 32}, {31, 33}} {
		for name, read := range map[string]func(a, b int){
			"Hops":          func(a, b int) { top.Hops(a, b) },
			"ReadLatency":   func(a, b int) { top.ReadLatency(a, b) },
			"DistanceClass": func(a, b int) { top.DistanceClass(a, b) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d,%d) did not panic", name, pair[0], pair[1])
					}
				}()
				read(pair[0], pair[1])
			}()
		}
	}
}
