package topology

import (
	"fmt"
	"math"
)

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
type fatTree struct {
	base
	arity int // leaves per pod
	pods  int
}

func newFatTree(cfg Config) (Network, error) {
	nodes, routers, err := shapeOf(cfg)
	if err != nil {
		return nil, err
	}
	arity := int(math.Ceil(math.Sqrt(float64(routers))))
	t := &fatTree{
		base:  base{cfg: cfg, kind: KindFatTree, nodes: nodes, routers: routers},
		arity: arity,
		pods:  (routers + arity - 1) / arity,
	}
	t.finalize(t)
	return t, nil
}

// leafOf returns the leaf switch of node n.
func (t *fatTree) leafOf(n int) int {
	if n < 0 || n >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	return n / t.cfg.NodesPerRouter
}

func (t *fatTree) Hops(a, b int) int {
	la, lb := t.leafOf(a), t.leafOf(b)
	switch {
	case la == lb:
		return 0
	case la/t.arity == lb/t.arity:
		return 2
	default:
		return 4
	}
}

func (t *fatTree) ReadLatency(from, to int) float64 {
	if from == to {
		return t.cfg.LocalLatency
	}
	return t.cfg.RemoteBaseLatency + t.cfg.HopLatency*float64(t.Hops(from, to))
}

// DistanceClass: 0 local, 1 same leaf, 2 same pod, 3 cross-pod.
func (t *fatTree) DistanceClass(from, to int) int {
	if from == to {
		return 0
	}
	return 1 + t.Hops(from, to)/2
}

func (t *fatTree) NumDistanceClasses() int { return 4 }
