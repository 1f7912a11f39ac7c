package topology

import "fmt"

// Topology is the Origin2000 binary hypercube: nodes paired onto
// routers, routers wired as a hypercube whose hop count is the Hamming
// distance between router ids. It is the default network (Config.Kind
// "" or KindHypercube) and the machine the paper measured; paper_test.go
// pins its published shape, down to the exact mean read latency every
// remote access is priced on (791.03125 ns for the 64-proc Origin). That
// mean is finalize's all-pairs mean like every other kind's: with
// whole-nanosecond latencies, as both machine presets have, every sum is
// exact, so it is bit for bit the one-row mean the vertex-transitive
// full-complement hypercube used to take as a shortcut — and it is
// right on a ragged last router, where the shortcut was not (see
// TestAverageReadLatencyAsymmetric).
type Topology struct {
	base
	dimension int // hypercube dimension over routers
}

// NewHypercube validates cfg and builds the hypercube. Unlike the other
// network kinds, the hypercube genuinely needs a power-of-two router
// count — Hamming-distance routing is undefined otherwise — so that
// constraint lives here, not in the generic New.
func NewHypercube(cfg Config) (*Topology, error) {
	nodes, routers, err := shapeOf(cfg)
	if err != nil {
		return nil, err
	}
	dim := 0
	for 1<<dim < routers {
		dim++
	}
	if 1<<dim != routers {
		return nil, fmt.Errorf("topology: hypercube router count %d is not a power of two", routers)
	}
	t := &Topology{
		base:      base{cfg: cfg, kind: KindHypercube, nodes: nodes, routers: routers},
		dimension: dim,
	}
	t.finalize(t)
	return t, nil
}

// Dimension returns the hypercube dimension across routers.
func (t *Topology) Dimension() int { return t.dimension }

// RouterOf returns the router to which node n attaches.
func (t *Topology) RouterOf(n int) int {
	if n < 0 || n >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	return n / t.cfg.NodesPerRouter
}

// Hops returns the number of router-to-router hops between the routers of
// nodes a and b. Two nodes on the same router are 0 hops apart; on a
// hypercube the hop count is the Hamming distance between router ids.
func (t *Topology) Hops(a, b int) int {
	ra, rb := t.RouterOf(a), t.RouterOf(b)
	x := uint(ra ^ rb)
	hops := 0
	for x != 0 {
		hops += int(x & 1)
		x >>= 1
	}
	return hops
}

// ReadLatency returns the uncontended latency (ns) for a processor on
// node from to read the first word of a line homed on node to.
func (t *Topology) ReadLatency(from, to int) float64 {
	if from == to {
		return t.cfg.LocalLatency
	}
	return t.cfg.RemoteBaseLatency + t.cfg.HopLatency*float64(t.Hops(from, to))
}

// DistanceClass returns 0 for local pairs and 1+hops otherwise. Remote
// latency is affine in the hop count, so pairs of equal hop count have
// bit-identical latency.
func (t *Topology) DistanceClass(from, to int) int {
	if from == to {
		return 0
	}
	return 1 + t.Hops(from, to)
}

// NumDistanceClasses returns dimension+2: class 0 (local) plus classes
// 1..dimension+1 for 0..dimension router hops.
func (t *Topology) NumDistanceClasses() int { return t.dimension + 2 }
