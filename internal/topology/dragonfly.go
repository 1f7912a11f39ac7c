package topology

import (
	"fmt"
	"math"
)

// dragonfly is a dragonfly network: routers are partitioned into groups,
// every group is internally all-to-all (one cheap local link between any
// two routers of a group), and every pair of groups is joined by exactly
// one long global link. The global link between groups g1 and g2
// attaches at local router index g2 mod size(g1) inside g1 and
// g1 mod size(g2) inside g2 — a deterministic symmetric assignment.
//
// Groups hold ⌈√routers⌉ routers (the last may be partial). Routing is
// minimal-latency over the actual link graph: each local hop costs
// HopLatency, each global hop 3×HopLatency, and the route between two
// routers is the cheapest path
// (ties broken toward fewer links, then fewer global links). Hops() is
// the plain shortest-path link count, which makes it a genuine graph
// metric — gateway placement can make an indirect two-global route
// shorter in links than the canonical local-global-local route, and a
// formula that ignored that would violate the triangle inequality the
// axiom suite checks.
type dragonfly struct {
	base
	groupRouters int // routers per full group (last group may be partial)
	groups       int
	globalNs     float64 // latency of one global hop

	// Per ordered router pair (r1*routers + r2):
	hops    []int16 // shortest-path link count
	locals  []int16 // local links on the min-latency path
	globals []int16 // global links on the min-latency path
	classes []int32 // distance class (≥1; 0 is reserved for local pairs)

	numClasses int
}

func newDragonfly(cfg Config) (Network, error) {
	nodes, routers, err := shapeOf(cfg)
	if err != nil {
		return nil, err
	}
	gr := int(math.Ceil(math.Sqrt(float64(routers))))
	t := &dragonfly{
		base:         base{cfg: cfg, kind: KindDragonfly, nodes: nodes, routers: routers},
		groupRouters: gr,
		groups:       (routers + gr - 1) / gr,
		globalNs:     3 * cfg.HopLatency,
	}
	t.computeRoutes()
	t.finalize(t)
	return t, nil
}

// dragonflyEdge is one undirected link of the router graph.
type dragonflyEdge struct {
	a, b   int
	global bool
}

// groupSize returns the router count of group g (the last group may be
// partial).
func (t *dragonfly) groupSize(g int) int {
	if g == t.groups-1 {
		return t.routers - g*t.groupRouters
	}
	return t.groupRouters
}

// edges builds the link list: all-to-all within each group, one global
// link per group pair, attached at the deterministic gateway routers.
func (t *dragonfly) edges() []dragonflyEdge {
	var es []dragonflyEdge
	for g := 0; g < t.groups; g++ {
		lo := g * t.groupRouters
		hi := lo + t.groupSize(g)
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				es = append(es, dragonflyEdge{a: a, b: b})
			}
		}
	}
	for g1 := 0; g1 < t.groups; g1++ {
		for g2 := g1 + 1; g2 < t.groups; g2++ {
			a := g1*t.groupRouters + g2%t.groupSize(g1)
			b := g2*t.groupRouters + g1%t.groupSize(g2)
			es = append(es, dragonflyEdge{a: a, b: b, global: true})
		}
	}
	return es
}

// computeRoutes fills the per-router-pair hop and min-latency tables and
// assigns distance classes. Bellman–Ford relaxation to a fixpoint is
// exact and cheap here: every minimal route has at most five links
// (local-global-local-global-local), so few rounds converge even on the
// largest simulated machines.
func (t *dragonfly) computeRoutes() {
	r := t.routers
	es := t.edges()
	t.hops = make([]int16, r*r)
	t.locals = make([]int16, r*r)
	t.globals = make([]int16, r*r)
	const inf = int16(math.MaxInt16)
	for i := range t.hops {
		t.hops[i], t.locals[i], t.globals[i] = inf, inf, inf
	}
	// latency comparison for candidate (a locals, b globals): cheaper
	// cost first, then fewer links, then fewer globals. The cost is
	// recomputed from (a, b) in a fixed expression, so equal (a, b) means
	// bit-identical cost everywhere.
	cost := func(a, b int16) float64 {
		return float64(a)*t.cfg.HopLatency + float64(b)*t.globalNs
	}
	better := func(a1, b1, a2, b2 int16) bool {
		c1, c2 := cost(a1, b1), cost(a2, b2)
		if c1 != c2 {
			return c1 < c2
		}
		if a1+b1 != a2+b2 {
			return a1+b1 < a2+b2
		}
		return b1 < b2
	}
	for src := 0; src < r; src++ {
		row := src * r
		t.hops[row+src], t.locals[row+src], t.globals[row+src] = 0, 0, 0
		for changed := true; changed; {
			changed = false
			for _, e := range es {
				for _, d := range [2][2]int{{e.a, e.b}, {e.b, e.a}} {
					from, to := d[0], d[1]
					if t.hops[row+from] == inf {
						continue
					}
					if h := t.hops[row+from] + 1; h < t.hops[row+to] {
						t.hops[row+to] = h
						changed = true
					}
					la, lb := t.locals[row+from], t.globals[row+from]
					if la == inf {
						continue
					}
					if e.global {
						lb++
					} else {
						la++
					}
					if t.locals[row+to] == inf || better(la, lb, t.locals[row+to], t.globals[row+to]) {
						t.locals[row+to], t.globals[row+to] = la, lb
						changed = true
					}
				}
			}
		}
	}
	// Distance classes: one per distinct (hops, locals, globals) triple,
	// assigned in row-major encounter order (deterministic); 0 stays
	// reserved for the from == to node pairs.
	t.classes = make([]int32, r*r)
	type routeShape struct{ h, a, b int16 }
	seen := map[routeShape]int32{}
	for i := range t.classes {
		s := routeShape{t.hops[i], t.locals[i], t.globals[i]}
		id, ok := seen[s]
		if !ok {
			id = int32(len(seen)) + 1
			seen[s] = id
		}
		t.classes[i] = id
	}
	t.numClasses = len(seen) + 1
}

// routerOf returns the router of node n.
func (t *dragonfly) routerOf(n int) int {
	if n < 0 || n >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	return n / t.cfg.NodesPerRouter
}

func (t *dragonfly) Hops(a, b int) int {
	return int(t.hops[t.routerOf(a)*t.routers+t.routerOf(b)])
}

func (t *dragonfly) ReadLatency(from, to int) float64 {
	if from == to {
		return t.cfg.LocalLatency
	}
	i := t.routerOf(from)*t.routers + t.routerOf(to)
	return t.cfg.RemoteBaseLatency +
		t.cfg.HopLatency*float64(t.locals[i]) + t.globalNs*float64(t.globals[i])
}

// DistanceClass: 0 local, else the class of the router pair's route
// shape — equal class means an identical (hops, locals, globals) triple
// and hence bit-identical latency.
func (t *dragonfly) DistanceClass(from, to int) int {
	if from == to {
		return 0
	}
	return int(t.classes[t.routerOf(from)*t.routers+t.routerOf(to)])
}

func (t *dragonfly) NumDistanceClasses() int { return t.numClasses }
