// Package topology models the interconnect of a cache-coherent DSM
// machine: processors grouped into nodes, nodes attached to routers, and
// routers wired into one of several network shapes. The default shape is
// the SGI Origin2000's binary hypercube; a k-ary fat-tree, 2D/3D tori, a
// dragonfly, and a two-tier chiplet NUMA are available for the
// beyond-paper scale studies (DESIGN.md §12).
//
// The package is purely combinatorial and deterministic. It answers
// questions such as "how many router hops separate processor 12's node
// from the home node of this page?" and converts hop counts into
// uncontended latencies. The interconnect's costs are constants of this
// package (LocalLatency, HopLatency, RemoteBaseLatency, LinkBandwidth);
// Config holds only the shape an experiment chooses.
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// Kind names of the built-in network shapes, usable in Config.Kind.
const (
	// KindHypercube is the Origin2000 binary hypercube (the default).
	KindHypercube = "hypercube"
	// KindFatTree is a k-ary fat-tree: leaf switches grouped into pods
	// under aggregation switches, pods joined by a core layer.
	KindFatTree = "fattree"
	// KindTorus is a 2D torus (routers on a wrap-around grid).
	KindTorus = "torus"
	// KindTorus3D is a 3D torus.
	KindTorus3D = "torus3d"
	// KindDragonfly is a dragonfly: all-to-all router groups joined by
	// long global links.
	KindDragonfly = "dragonfly"
	// KindNUMA2 is a two-tier chiplet NUMA: packages of nodes with cheap
	// intra-package and expensive inter-package links.
	KindNUMA2 = "numa2"
)

// The Origin2000 interconnect's fixed costs, the same for every kind
// and size. A charge divides or multiplies a run-time value by one of
// them, as TransferTime does, never another constant: Go folds constant
// expressions exactly, which can round differently from the run-time
// arithmetic the variant digests pin.
const (
	// LocalLatency is the uncontended latency of a read satisfied by the
	// local node's memory (nanoseconds): 313 ns on the Origin2000.
	LocalLatency float64 = 313
	// HopLatency is the additional latency per router hop (nanoseconds):
	// about 100 ns on the Origin2000.
	HopLatency float64 = 100
	// RemoteBaseLatency is the uncontended latency of a read satisfied by
	// a remote node reached through zero intervening router hops beyond
	// the first router (nanoseconds). Calibrated so that the average and
	// furthest remote latencies land near the Origin2000's published
	// 796 ns and 1010 ns.
	RemoteBaseLatency float64 = 600
	// LinkBandwidth is the peak point-to-point bandwidth between nodes in
	// bytes per nanosecond (1.6 GB/s total both directions on the
	// Origin2000, i.e. 0.8 GB/s per direction = 0.8 bytes/ns).
	LinkBandwidth float64 = 0.8
)

// nodesPerRouter is the number of consecutive nodes attached to one
// router: the Origin2000 attaches each pair of nodes to a router. numa2
// is the exception; its routers are its packages (Config.shape).
const nodesPerRouter = 2

// Config describes the shape an experiment chooses for the machine: the
// network kind and how many processors it has, how many to a node. It is
// a pure value (no slices or maps), so machine configurations built from
// it stay comparable and JSON-canonical. The interconnect's costs are
// the package constants above, and everything else about a shape —
// fat-tree pod arity, torus grid, dragonfly group size and global-link
// latency, numa2 package size — is derived from the router count by the
// kind's route function (kinds.go, DESIGN.md §12).
type Config struct {
	// Kind selects the network shape by name ("" selects KindHypercube).
	Kind string

	// Processors is the total processor count. It must be a positive
	// multiple of ProcsPerNode.
	Processors int
	// ProcsPerNode is the number of processors sharing a node (and its
	// memory). The Origin2000 packages 2 processors per node.
	ProcsPerNode int
}

// kind returns the shape name, with "" resolved to the hypercube.
func (c Config) kind() string {
	if c.Kind == "" {
		return KindHypercube
	}
	return c.Kind
}

// shape validates c and returns the node count, how many consecutive
// nodes share a router, and the router count. Validation is per kind:
// only the hypercube constrains the machine's shape — Hamming-distance
// routing is undefined unless the router count is a power of two — and
// every other kind derives its grid, pods, groups or packages from the
// counts.
func (c Config) shape() (nodes, perRouter, routers int, err error) {
	fail := func(format string, args ...any) (int, int, int, error) {
		return 0, 0, 0, fmt.Errorf("topology: "+format, args...)
	}
	if _, ok := kinds[c.kind()]; !ok {
		return fail("unknown kind %q (known: %s)", c.Kind, strings.Join(Kinds(), ", "))
	}
	if c.Processors <= 0 {
		return fail("processors must be positive, got %d", c.Processors)
	}
	if c.ProcsPerNode <= 0 {
		return fail("procs per node must be positive, got %d", c.ProcsPerNode)
	}
	if c.Processors%c.ProcsPerNode != 0 {
		return fail("processors (%d) not a multiple of procs per node (%d)", c.Processors, c.ProcsPerNode)
	}
	nodes = c.Processors / c.ProcsPerNode
	perRouter = nodesPerRouter
	if c.kind() == KindNUMA2 {
		// The routers of the two-tier NUMA are its packages of ⌈nodes/4⌉
		// nodes (kinds.go's numa2 says how many that makes).
		perRouter = (nodes + 3) / 4
	}
	routers = (nodes + perRouter - 1) / perRouter
	if c.kind() == KindHypercube && routers&(routers-1) != 0 {
		return fail("hypercube router count %d is not a power of two", routers)
	}
	return nodes, perRouter, routers, nil
}

// Validate reports whether New would accept c, without routing
// anything: it costs a few comparisons at any machine size.
func (c Config) Validate() error {
	_, _, _, err := c.shape()
	return err
}

// Kinds returns the kind names, sorted.
func Kinds() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// distance is what every node pair of one distance class shares.
type distance struct {
	hops int     // router-to-router links
	ns   float64 // uncontended read latency
}

// Network is an immutable view of one machine interconnect: a
// deterministic pure function of its Config, built once by New and read
// as tables afterwards. It is a handle — copies share the tables — and
// only New makes a usable one.
//
// Every kind is the same value. A kind only says what the route between
// two routers costs (kinds.go); New turns that into one distance class
// per node pair and one (hops, latency) per class, and every method
// below is a read of those.
//
// Two properties are contracts the pricing layer depends on
// (DESIGN.md §12), enforced across every kind by TestNetworkMetricAxioms
// and FuzzNetworkMetrics:
//
//   - ReadLatency is symmetric: ReadLatency(a, b) == ReadLatency(b, a)
//     bit-for-bit, for every node pair.
//   - ReadLatency and Hops are exact functions of DistanceClass: every
//     node pair in one distance class has bit-identical latency and
//     equal hop count, and class 0 is exactly the local (a == a) pairs.
//
// How the remaining classes are numbered is not a contract.
type Network struct{ t *tables }

// tables is everything New computes.
type tables struct {
	cfg     Config
	nodes   int
	routers int

	// class[a*nodes+b] is the distance class of node pair (a, b);
	// classes[c] is what the pairs of class c share.
	class   []int32
	classes []distance

	maxHops  int
	furthest float64
	average  float64
}

// New validates cfg and builds the network of cfg.Kind ("" selects the
// hypercube).
func New(cfg Config) (Network, error) {
	nodes, perRouter, routers, err := cfg.shape()
	if err != nil {
		return Network{}, err
	}
	route := kinds[cfg.kind()](routers)
	t := &tables{
		cfg:     cfg,
		nodes:   nodes,
		routers: routers,
		class:   make([]int32, nodes*nodes),
		classes: []distance{{0, LocalLatency}},
	}

	// One class per distinct (hops, latency) among the router pairs, in
	// row-major encounter order after the local class 0. A remote pair
	// never joins class 0, whatever its latency: the pricing layer
	// charges local and remote misses differently.
	ofRouters := make([]int32, routers*routers)
	for ra := 0; ra < routers; ra++ {
		for rb := 0; rb < routers; rb++ {
			hops, ns := route(ra, rb)
			d := distance{hops, ns}
			c := 1
			for c < len(t.classes) && t.classes[c] != d {
				c++
			}
			if c == len(t.classes) {
				t.classes = append(t.classes, d)
			}
			ofRouters[ra*routers+rb] = int32(c)
			if hops > t.maxHops {
				t.maxHops = hops
			}
		}
	}

	// The node-pair table, and the furthest and mean latency over the
	// pairs that exist (a router-pair class is uninhabited when, say, the
	// only router pair of its distance is one single-node router with
	// itself). Row sums accumulate before the total so the addition
	// order, and hence the stored mean, is a function of the shape alone
	// — the same order the simulated results were produced with.
	total := 0.0
	for a := 0; a < nodes; a++ {
		row := 0.0
		classRow := t.class[a*nodes : (a+1)*nodes]
		fromRouter := ofRouters[a/perRouter*routers:]
		for b := range classRow {
			if a != b {
				classRow[b] = fromRouter[b/perRouter]
			}
			ns := t.classes[classRow[b]].ns
			if ns > t.furthest {
				t.furthest = ns
			}
			row += ns
		}
		total += row
	}
	t.average = total / float64(nodes*nodes)
	return Network{t}, nil
}

// Kind is the name of the network's shape.
func (n Network) Kind() string { return n.t.cfg.kind() }

// Processors returns the total processor count.
func (n Network) Processors() int { return n.t.cfg.Processors }

// Nodes returns the number of memory nodes.
func (n Network) Nodes() int { return n.t.nodes }

// Routers returns the number of routers (switches).
func (n Network) Routers() int { return n.t.routers }

// NodeOf returns the node housing processor p.
func (n Network) NodeOf(p int) int {
	if p < 0 || p >= n.t.cfg.Processors {
		panic(fmt.Sprintf("topology: processor %d out of range [0,%d)", p, n.t.cfg.Processors))
	}
	return p / n.t.cfg.ProcsPerNode
}

// ClassRow returns DistanceClass(from, ·) for every node: the row a
// processor on node from indexes by home node on every miss. The caller
// must not modify it.
func (n Network) ClassRow(from int) []int32 {
	return n.t.class[from*n.t.nodes : (from+1)*n.t.nodes]
}

// DistanceClass maps a node pair to its distance class in
// [0, NumDistanceClasses): an index such that every pair of the class
// has bit-identical ReadLatency and equal Hops. Class 0 is the local
// (from == to) pairs. The pricing tables are memoized per class, not per
// pair, so the memo stays O(classes) at any machine size.
func (n Network) DistanceClass(from, to int) int { return int(n.ClassRow(from)[to]) }

// NumDistanceClasses returns the number of distance classes. Not every
// class below the bound need be inhabited.
func (n Network) NumDistanceClasses() int { return len(n.t.classes) }

// Hops returns the number of router-to-router hops between the routers
// of nodes a and b (0 for nodes sharing a router).
func (n Network) Hops(a, b int) int { return n.t.classes[n.DistanceClass(a, b)].hops }

// MaxHops returns the largest hop count between any two nodes.
func (n Network) MaxHops() int { return n.t.maxHops }

// ReadLatency returns the uncontended latency (ns) for a processor on
// node from to read the first word of a line homed on node to.
func (n Network) ReadLatency(from, to int) float64 { return n.t.classes[n.DistanceClass(from, to)].ns }

// FurthestReadLatency returns the uncontended latency to the furthest
// memory.
func (n Network) FurthestReadLatency() float64 { return n.t.furthest }

// AverageReadLatency returns the exact mean uncontended read latency
// over all ordered (from, to) node pairs, local pairs included.
func (n Network) AverageReadLatency() float64 { return n.t.average }

// TransferTime returns the time (ns) to stream size bytes across one
// link at peak bandwidth. Latency is not included; callers add the
// appropriate per-transaction latency separately.
func TransferTime(size int) float64 {
	if size <= 0 {
		return 0
	}
	return float64(size) / LinkBandwidth
}
