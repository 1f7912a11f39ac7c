package topology

import (
	"math/rand"
	"strings"
	"testing"
)

// testNetConfig is the Origin2000's node shape reshaped onto an
// arbitrary network kind — the configuration the axiom suite and the
// fuzz target build everything from.
func testNetConfig(kind string, procs int) Config {
	return Config{Kind: kind, Processors: procs, ProcsPerNode: 2}
}

// axiomSizes returns processor counts that the kind accepts: the
// hypercube needs a power-of-two router count, the other shapes are
// exercised on ragged sizes too (including ≥128 simulated procs).
func axiomSizes(kind string) []int {
	if kind == KindHypercube {
		return []int{2, 4, 8, 64, 128, 256, 1024}
	}
	return []int{2, 6, 24, 52, 64, 128, 250, 1024}
}

// TestNetworkMetricAxioms checks the metric axioms every Network must
// satisfy, across all registered kinds and a spread of machine sizes:
// zero self-distance, hop symmetry, the triangle inequality over
// routers, latency symmetry, and latency monotone in hops.
func TestNetworkMetricAxioms(t *testing.T) {
	for _, kind := range Kinds() {
		for _, procs := range axiomSizes(kind) {
			kind, procs := kind, procs
			t.Run(kind+"/"+itoa(procs), func(t *testing.T) {
				t.Parallel()
				net, err := New(testNetConfig(kind, procs))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				checkMetricAxioms(t, net)
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func checkMetricAxioms(t *testing.T, net Network) {
	t.Helper()
	n := net.Nodes()
	if got := net.NodeOf(0); got != 0 {
		t.Errorf("NodeOf(0) = %d, want 0", got)
	}
	if got := net.NodeOf(net.Processors() - 1); got != n-1 {
		t.Errorf("NodeOf(last proc) = %d, want %d", got, n-1)
	}
	if net.Routers() < 1 || net.Routers() > n {
		t.Errorf("Routers() = %d outside [1,%d]", net.Routers(), n)
	}

	// Hop-indexed latency extremes for the monotonicity check, plus
	// running max/avg for the summary-statistic checks.
	minLat := map[int]float64{}
	maxLat := map[int]float64{}
	maxHops, furthest, total := 0, 0.0, 0.0
	for a := 0; a < n; a++ {
		row := 0.0
		for b := 0; b < n; b++ {
			h := net.Hops(a, b)
			if h < 0 {
				t.Fatalf("Hops(%d,%d) = %d negative", a, b, h)
			}
			if a == b && h != 0 {
				t.Fatalf("Hops(%d,%d) = %d, want 0 self-distance", a, b, h)
			}
			if hr := net.Hops(b, a); hr != h {
				t.Fatalf("Hops asymmetric: (%d,%d)=%d, (%d,%d)=%d", a, b, h, b, a, hr)
			}
			lat := net.ReadLatency(a, b)
			if lr := net.ReadLatency(b, a); lr != lat {
				t.Fatalf("ReadLatency asymmetric: (%d,%d)=%v, (%d,%d)=%v", a, b, lat, b, a, lr)
			}
			if lat <= 0 {
				t.Fatalf("ReadLatency(%d,%d) = %v not positive", a, b, lat)
			}
			if cur, ok := minLat[h]; !ok || lat < cur {
				minLat[h] = lat
			}
			if lat > maxLat[h] {
				maxLat[h] = lat
			}
			if h > maxHops {
				maxHops = h
			}
			if lat > furthest {
				furthest = lat
			}
			row += lat

			cls := net.DistanceClass(a, b)
			if cls < 0 || cls >= net.NumDistanceClasses() {
				t.Fatalf("DistanceClass(%d,%d) = %d outside [0,%d)", a, b, cls, net.NumDistanceClasses())
			}
			if (cls == 0) != (a == b) {
				t.Fatalf("DistanceClass(%d,%d) = %d; class 0 must be exactly the local pairs", a, b, cls)
			}
			if cr := net.DistanceClass(b, a); cr != cls {
				t.Fatalf("DistanceClass asymmetric: (%d,%d)=%d, (%d,%d)=%d", a, b, cls, b, a, cr)
			}
		}
		total += row
	}

	// Latency monotone in hops: every pair at a strictly larger hop count
	// is at least as expensive as every pair at a smaller one.
	for h1, mx := range maxLat {
		for h2, mn := range minLat {
			if h1 < h2 && mx > mn {
				t.Errorf("latency not monotone in hops: max lat at %d hops = %v > min lat at %d hops = %v",
					h1, mx, h2, mn)
			}
		}
	}

	if got := net.MaxHops(); got != maxHops {
		t.Errorf("MaxHops() = %d, want observed %d", got, maxHops)
	}
	if got := net.FurthestReadLatency(); got != furthest {
		t.Errorf("FurthestReadLatency() = %v, want observed %v", got, furthest)
	}
	if got, want := net.AverageReadLatency(), total/float64(n*n); got != want {
		t.Errorf("AverageReadLatency() = %v, want all-pairs mean %v", got, want)
	}

	// Triangle inequality over routers: exhaustive on small machines,
	// seeded-random sampling on large ones.
	check := func(a, b, c int) {
		if net.Hops(a, c) > net.Hops(a, b)+net.Hops(b, c) {
			t.Fatalf("triangle inequality violated: Hops(%d,%d)=%d > Hops(%d,%d)=%d + Hops(%d,%d)=%d",
				a, c, net.Hops(a, c), a, b, net.Hops(a, b), b, c, net.Hops(b, c))
		}
	}
	if n <= 24 {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					check(a, b, c)
				}
			}
		}
	} else {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			check(rng.Intn(n), rng.Intn(n), rng.Intn(n))
		}
	}

	// Distance classes partition the pairs into bit-identical latencies:
	// every pair of a class must have the same latency and hop count.
	classLat := map[int]float64{}
	classHops := map[int]int{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			cls := net.DistanceClass(a, b)
			lat, h := net.ReadLatency(a, b), net.Hops(a, b)
			if prev, ok := classLat[cls]; ok {
				if prev != lat {
					t.Fatalf("class %d has two latencies: %v and %v at (%d,%d)", cls, prev, lat, a, b)
				}
				if classHops[cls] != h {
					t.Fatalf("class %d has two hop counts: %d and %d at (%d,%d)", cls, classHops[cls], h, a, b)
				}
			} else {
				classLat[cls], classHops[cls] = lat, h
			}
		}
	}
}

// TestAverageReadLatencyAsymmetric is the regression for the node-0
// shortcut bug: on a machine whose last router carries fewer nodes the
// latency rows differ per node, so the historical "average from node 0"
// is not the all-pairs mean. 6 processors at 2 per node put 3 nodes on
// 2 routers (a legal power-of-two hypercube): node 0 shares its router
// with node 1 only, node 2 sits alone, and the two row means disagree.
func TestAverageReadLatencyAsymmetric(t *testing.T) {
	top, err := New(testNetConfig(KindHypercube, 6))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if top.Nodes() != 3 || top.Routers() != 2 {
		t.Fatalf("unexpected shape: %d nodes on %d routers", top.Nodes(), top.Routers())
	}
	node0 := 0.0
	for b := 0; b < top.Nodes(); b++ {
		node0 += top.ReadLatency(0, b)
	}
	node0 /= float64(top.Nodes())
	want := 0.0
	for a := 0; a < top.Nodes(); a++ {
		for b := 0; b < top.Nodes(); b++ {
			want += top.ReadLatency(a, b)
		}
	}
	want /= float64(top.Nodes() * top.Nodes())
	if node0 == want {
		t.Fatalf("test network not asymmetric: node-0 mean == all-pairs mean == %v", want)
	}
	if got := top.AverageReadLatency(); got != want {
		t.Errorf("AverageReadLatency() = %v, want all-pairs mean %v (node-0 shortcut gives %v)",
			got, want, node0)
	}
}

// TestPerKindValidation checks that each network kind rejects exactly
// its own malformed configurations, with errors that name the problem.
// Only the hypercube constrains the machine's shape; every other kind
// derives its grid, pods, groups and packages from the router count.
func TestPerKindValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"unknown kind", func(c *Config) { c.Kind = "moebius" }, "unknown kind"},
		{"hypercube non-power-of-two routers", func(c *Config) { c.Kind = KindHypercube; c.Processors = 24 }, "power of two"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testNetConfig("", 32)
			c.mutate(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("New accepted invalid config %+v", cfg)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestNUMA2Packages pins numa2's package count: packages of ⌈nodes/4⌉
// nodes make four packages at most sizes, but three for 5, 6 or 9 nodes
// and one per node below four. No fingerprint size covers 5 or 9 nodes.
func TestNUMA2Packages(t *testing.T) {
	for _, c := range []struct{ nodes, routers int }{
		{1, 1}, {3, 3}, {4, 4}, {5, 3}, {6, 3}, {9, 3}, {10, 4},
	} {
		net, err := New(Config{Kind: KindNUMA2, Processors: c.nodes, ProcsPerNode: 1})
		if err != nil {
			t.Fatalf("New(numa2, %d nodes): %v", c.nodes, err)
		}
		if got := net.Routers(); got != c.routers {
			t.Errorf("numa2 with %d nodes: Routers() = %d, want %d", c.nodes, got, c.routers)
		}
	}
}

// TestKindsRegistry pins the registered kind names the CLI flags and
// simd validation advertise.
func TestKindsRegistry(t *testing.T) {
	want := []string{KindDragonfly, KindFatTree, KindHypercube, KindNUMA2, KindTorus, KindTorus3D}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds() = %v, want %v", got, want)
		}
	}
	for _, k := range want {
		if _, err := New(testNetConfig(k, 64)); err != nil {
			t.Errorf("New(%s, 64 procs): %v", k, err)
		}
	}
}

// TestDefaultKindIsHypercube: an empty Kind must build the bit-for-bit
// Origin2000 hypercube.
func TestDefaultKindIsHypercube(t *testing.T) {
	net, err := New(testNetConfig("", 64))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if net.Kind() != KindHypercube {
		t.Fatalf("default kind = %q, want %q", net.Kind(), KindHypercube)
	}
	got, want := fingerprintOf(t, "", 64), fingerprintOf(t, KindHypercube, 64)
	got.Kind = want.Kind
	if got != want {
		t.Fatalf("default network %+v, want the hypercube's %+v", got, want)
	}
}
