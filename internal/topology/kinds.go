package topology

import (
	"math"
	"math/bits"
)

// route is a kind's whole say about one ordered router pair: the number
// of links between the two routers, and the uncontended latency (ns) of
// a read between two different nodes attached to them. It must be
// symmetric in both results.
type route func(ra, rb int) (hops int, ns float64)

// kinds maps each kind name to its routing: given the router count of
// a validated Config, the route between two routers. Everything a shape
// needs — fat-tree pod arity, torus grid, dragonfly group size and
// global-link latency — is derived here from the router count and the
// HopLatency constant (DESIGN.md §12).
var kinds = map[string]func(routers int) route{
	KindHypercube: hypercube,
	KindFatTree:   fatTree,
	KindTorus:     func(routers int) route { return torus(torusDims(2, routers)) },
	KindTorus3D:   func(routers int) route { return torus(torusDims(3, routers)) },
	KindDragonfly: dragonfly,
	KindNUMA2:     numa2,
}

// perHop is the latency every kind but the two-tier ones uses: remote
// base plus HopLatency per router hop. Remote latency affine in the hop
// count is the Origin2000's published behaviour (paper_test.go).
func perHop(hops int) float64 {
	return RemoteBaseLatency + float64(HopLatency*float64(hops))
}

// hypercube is the Origin2000 binary hypercube — the default network and
// the machine the paper measured: the hop count between two routers is
// the Hamming distance between their ids. paper_test.go pins its
// published shape, down to the exact mean read latency every remote
// access is priced on (791.03125 ns for the 64-processor Origin).
func hypercube(_ int) route {
	return func(ra, rb int) (int, float64) {
		hops := bits.OnesCount(uint(ra ^ rb))
		return hops, perHop(hops)
	}
}

// fatTree is a k-ary fat-tree (folded Clos): each router is a leaf
// switch, leaves are grouped into pods of ⌈√leaves⌉ under an
// aggregation layer, and pods meet at a core layer. With full bisection
// bandwidth the route between two leaves is the canonical up*/down*
// path, so the hop count depends only on how much of the tree the pair
// shares:
//
//	same leaf   0 hops
//	same pod    2 hops (leaf → aggregation → leaf)
//	cross-pod   4 hops (leaf → aggregation → core → aggregation → leaf)
func fatTree(routers int) route {
	arity := int(math.Ceil(math.Sqrt(float64(routers))))
	return func(la, lb int) (int, float64) {
		hops := 4
		switch {
		case la == lb:
			hops = 0
		case la/arity == lb/arity:
			hops = 2
		}
		return hops, perHop(hops)
	}
}

// torus is a 2D or 3D torus: routers sit on the wrap-around grid dims
// and the hop count between two routers is the Manhattan distance with
// ring wrap-around in each dimension (dimension-ordered routing).
func torus(dims []int) route {
	return func(ra, rb int) (int, float64) {
		hops := 0
		for _, size := range dims {
			d := ra%size - rb%size
			ra, rb = ra/size, rb/size
			if d < 0 {
				d = -d
			}
			hops += min(d, size-d)
		}
		return hops, perHop(hops)
	}
}

// torusDims factors routers into the most balanced grid of want
// dimensions: the largest divisor at most the want-th root becomes the
// first dimension, recursively. Prime router counts degrade to a ring
// (×1 dimensions).
func torusDims(want, routers int) []int {
	if want == 1 {
		return []int{routers}
	}
	root := int(math.Round(math.Pow(float64(routers), 1/float64(want))))
	d := 1
	for c := min(max(root, 1), routers); c >= 1; c-- {
		if routers%c == 0 {
			d = c
			break
		}
	}
	return append([]int{d}, torusDims(want-1, routers/d)...)
}

// numa2 is a two-tier chiplet NUMA: nodes are grouped into packages of
// ⌈nodes/4⌉ — four packages at most sizes, three for 5, 6 or 9 nodes,
// one per node for 1–3 nodes — a read inside a package pays only the
// cheap on-package interconnect (RemoteBaseLatency), and a read crossing
// packages additionally pays one expensive off-package link
// (6×HopLatency). The "routers" of this shape are the packages
// themselves (Config.shape) — nodesPerRouter plays no part — and
// HopLatency only sets the inter-package cost.
func numa2(_ int) route {
	globalNs := 6 * HopLatency
	return func(pa, pb int) (int, float64) {
		if pa == pb {
			return 0, RemoteBaseLatency
		}
		return 1, RemoteBaseLatency + globalNs
	}
}
