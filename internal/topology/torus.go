package topology

import (
	"fmt"
	"math"
)

// torus is a 2D or 3D torus: routers sit on a wrap-around grid — the
// most balanced factorization of the router count — and the hop count
// between two routers is the Manhattan distance with ring wrap-around in
// each dimension (dimension-ordered routing).
type torus struct {
	base
	dims []int // router grid, [W,H] or [W,H,D]
}

func newTorus2D(cfg Config) (Network, error) { return newTorus(cfg, 2) }
func newTorus3D(cfg Config) (Network, error) { return newTorus(cfg, 3) }

func newTorus(cfg Config, want int) (Network, error) {
	nodes, routers, err := shapeOf(cfg)
	if err != nil {
		return nil, err
	}
	kind := KindTorus
	if want == 3 {
		kind = KindTorus3D
	}
	t := &torus{
		base: base{cfg: cfg, kind: kind, nodes: nodes, routers: routers},
		dims: deriveTorusDims(want, routers),
	}
	t.finalize(t)
	return t, nil
}

// deriveTorusDims factors routers into the most balanced grid: the
// largest divisor at most the d-th root becomes the first dimension,
// recursively. Prime router counts degrade to a ring (×1 dimensions).
func deriveTorusDims(want, routers int) []int {
	if want == 1 {
		return []int{routers}
	}
	root := int(math.Round(math.Pow(float64(routers), 1/float64(want))))
	if root < 1 {
		root = 1
	}
	if root > routers {
		root = routers
	}
	d := 1
	for c := root; c >= 1; c-- {
		if routers%c == 0 {
			d = c
			break
		}
	}
	return append([]int{d}, deriveTorusDims(want-1, routers/d)...)
}

// routerOf returns the router of node n.
func (t *torus) routerOf(n int) int {
	if n < 0 || n >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	return n / t.cfg.NodesPerRouter
}

func (t *torus) Hops(a, b int) int {
	ra, rb := t.routerOf(a), t.routerOf(b)
	hops := 0
	for _, size := range t.dims {
		ca, cb := ra%size, rb%size
		ra, rb = ra/size, rb/size
		d := ca - cb
		if d < 0 {
			d = -d
		}
		if wrap := size - d; wrap < d {
			d = wrap
		}
		hops += d
	}
	return hops
}

func (t *torus) ReadLatency(from, to int) float64 {
	if from == to {
		return t.cfg.LocalLatency
	}
	return t.cfg.RemoteBaseLatency + t.cfg.HopLatency*float64(t.Hops(from, to))
}

// DistanceClass: 0 local, 1+hops otherwise (latency is affine in hops).
func (t *torus) DistanceClass(from, to int) int {
	if from == to {
		return 0
	}
	return 1 + t.Hops(from, to)
}

func (t *torus) NumDistanceClasses() int { return t.maxHops + 2 }
