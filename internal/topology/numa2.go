package topology

import "fmt"

// numa2 is a two-tier chiplet NUMA: nodes are grouped into packages of
// ⌈nodes/4⌉ (four chiplet packages), a read inside a package pays only the cheap
// on-package interconnect (RemoteBaseLatency), and a read crossing
// packages additionally pays one expensive off-package link
// (6×HopLatency). The "routers" of this shape are the packages
// themselves; HopLatency only sets the inter-package cost.
type numa2 struct {
	base
	pkgNodes int // nodes per package
	globalNs float64
}

func newNUMA2(cfg Config) (Network, error) {
	nodes, _, err := shapeOf(cfg)
	if err != nil {
		return nil, err
	}
	pn := (nodes + 3) / 4
	packages := (nodes + pn - 1) / pn
	t := &numa2{
		base:     base{cfg: cfg, kind: KindNUMA2, nodes: nodes, routers: packages},
		pkgNodes: pn,
		globalNs: 6 * cfg.HopLatency,
	}
	t.finalize(t)
	return t, nil
}

// packageOf returns the package housing node n.
func (t *numa2) packageOf(n int) int {
	if n < 0 || n >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	return n / t.pkgNodes
}

// Hops: 0 within a package, 1 across (one off-package link).
func (t *numa2) Hops(a, b int) int {
	if t.packageOf(a) == t.packageOf(b) {
		return 0
	}
	return 1
}

func (t *numa2) ReadLatency(from, to int) float64 {
	if from == to {
		return t.cfg.LocalLatency
	}
	if t.packageOf(from) == t.packageOf(to) {
		return t.cfg.RemoteBaseLatency
	}
	return t.cfg.RemoteBaseLatency + t.globalNs
}

// DistanceClass: 0 local, 1 on-package remote, 2 off-package.
func (t *numa2) DistanceClass(from, to int) int {
	if from == to {
		return 0
	}
	if t.packageOf(from) == t.packageOf(to) {
		return 1
	}
	return 2
}

func (t *numa2) NumDistanceClasses() int { return 3 }
