package topology

import "math"

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
// routers is the cheapest path (ties broken toward fewer links, then
// fewer global links). The hop count is the plain shortest-path link
// count, which makes it a genuine graph metric — gateway placement can
// make an indirect two-global route shorter in links than the canonical
// local-global-local route, and a formula that ignored that would
// violate the triangle inequality the axiom suite checks.
//
// The routes are found once, by Bellman–Ford relaxation to a fixpoint
// from every source. That is exact and cheap here: every minimal route
// has at most five links (local-global-local-global-local), so few
// rounds converge even on the largest simulated machines.
func dragonfly(routers int) route {
	groupRouters := int(math.Ceil(math.Sqrt(float64(routers))))
	groups := (routers + groupRouters - 1) / groupRouters
	globalNs := 3 * HopLatency
	// groupSize is the router count of group g (the last may be partial).
	groupSize := func(g int) int {
		if g == groups-1 {
			return routers - g*groupRouters
		}
		return groupRouters
	}

	// The link list: all-to-all within each group, one global link per
	// group pair, attached at the deterministic gateway routers.
	type edge struct {
		a, b   int
		global bool
	}
	var edges []edge
	for g := 0; g < groups; g++ {
		lo := g * groupRouters
		hi := lo + groupSize(g)
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				edges = append(edges, edge{a: a, b: b})
			}
		}
	}
	for g1 := 0; g1 < groups; g1++ {
		for g2 := g1 + 1; g2 < groups; g2++ {
			a := g1*groupRouters + g2%groupSize(g1)
			b := g2*groupRouters + g1%groupSize(g2)
			edges = append(edges, edge{a: a, b: b, global: true})
		}
	}

	// Per ordered router pair (r1*routers + r2): the shortest-path link
	// count, and the local and global links on the min-latency path.
	const inf = int16(math.MaxInt16)
	hops := make([]int16, routers*routers)
	locals := make([]int16, routers*routers)
	globals := make([]int16, routers*routers)
	for i := range hops {
		hops[i], locals[i], globals[i] = inf, inf, inf
	}
	// Candidate (a locals, b globals) comparison: cheaper cost first,
	// then fewer links, then fewer globals. The cost is recomputed from
	// (a, b) in a fixed expression, so equal (a, b) means bit-identical
	// cost everywhere.
	cost := func(a, b int16) float64 {
		return float64(float64(a)*HopLatency) + float64(float64(b)*globalNs)
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
	for src := 0; src < routers; src++ {
		row := src * routers
		hops[row+src], locals[row+src], globals[row+src] = 0, 0, 0
		for changed := true; changed; {
			changed = false
			for _, e := range edges {
				for _, d := range [2][2]int{{e.a, e.b}, {e.b, e.a}} {
					from, to := d[0], d[1]
					if hops[row+from] == inf {
						continue
					}
					if h := hops[row+from] + 1; h < hops[row+to] {
						hops[row+to] = h
						changed = true
					}
					la, lb := locals[row+from], globals[row+from]
					if la == inf {
						continue
					}
					if e.global {
						lb++
					} else {
						la++
					}
					if locals[row+to] == inf || better(la, lb, locals[row+to], globals[row+to]) {
						locals[row+to], globals[row+to] = la, lb
						changed = true
					}
				}
			}
		}
	}
	return func(ra, rb int) (int, float64) {
		i := ra*routers + rb
		return int(hops[i]), RemoteBaseLatency +
			float64(HopLatency*float64(locals[i])) + float64(globalNs*float64(globals[i]))
	}
}
