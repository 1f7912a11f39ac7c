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
// uncontended latencies using the machine's latency parameters.
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

// Config describes the physical organization of the machine. It is a
// pure value (no slices or maps), so machine configurations built from
// it stay comparable and JSON-canonical. Everything else about a shape —
// fat-tree pod arity, torus grid, dragonfly group size and global-link
// latency, numa2 package size — is derived from these fields by the
// kind's constructor (DESIGN.md §12).
type Config struct {
	// Kind selects the network shape by name ("" selects KindHypercube).
	// See New.
	Kind string

	// Processors is the total processor count. It must be a positive
	// multiple of ProcsPerNode.
	Processors int
	// ProcsPerNode is the number of processors sharing a node (and its
	// memory). The Origin2000 packages 2 processors per node.
	ProcsPerNode int
	// NodesPerRouter is the number of nodes attached to one router.
	// The Origin2000 attaches each pair of nodes to a router.
	NodesPerRouter int

	// LocalLatency is the uncontended latency of a read satisfied by the
	// local node's memory (nanoseconds). 313 ns on the Origin2000.
	LocalLatency float64
	// HopLatency is the additional latency per router hop (nanoseconds).
	// About 100 ns on the Origin2000.
	HopLatency float64
	// RemoteBaseLatency is the uncontended latency of a read satisfied by
	// a remote node reached through zero intervening router hops beyond
	// the first router (nanoseconds). Calibrated so that the average and
	// furthest remote latencies land near the Origin2000's published
	// 796 ns and 1010 ns.
	RemoteBaseLatency float64
	// LinkBandwidth is the peak point-to-point bandwidth between nodes in
	// bytes per nanosecond (1.6 GB/s total both directions on the
	// Origin2000, i.e. 0.8 GB/s per direction = 0.8 bytes/ns).
	LinkBandwidth float64
}

// Network is an immutable view of one machine interconnect. All
// implementations are deterministic pure functions of their Config.
//
// Two properties are contracts the pricing layer depends on
// (DESIGN.md §12):
//
//   - ReadLatency is symmetric: ReadLatency(a, b) == ReadLatency(b, a)
//     bit-for-bit, for every node pair.
//   - ReadLatency and Hops are exact functions of DistanceClass: every
//     node pair in one distance class has bit-identical latency and
//     equal hop count, and class 0 is exactly the local (a == a) pairs.
//
// TestDistanceClassInvariants enforces both across every registered kind.
type Network interface {
	// Kind is the name of the network's shape.
	Kind() string
	// Config returns the configuration the network was built from.
	Config() Config
	// Processors returns the total processor count.
	Processors() int
	// Nodes returns the number of memory nodes.
	Nodes() int
	// Routers returns the number of routers (switches).
	Routers() int
	// NodeOf returns the node housing processor p.
	NodeOf(p int) int
	// Hops returns the number of router-to-router hops between the
	// routers of nodes a and b (0 for nodes sharing a router).
	Hops(a, b int) int
	// MaxHops returns the largest hop count between any two nodes.
	MaxHops() int
	// LocalLatency returns the uncontended latency (ns) of a read
	// satisfied by the local node's memory.
	LocalLatency() float64
	// ReadLatency returns the uncontended latency (ns) for a processor on
	// node from to read the first word of a line homed on node to.
	ReadLatency(from, to int) float64
	// FurthestReadLatency returns the uncontended latency to the furthest
	// memory.
	FurthestReadLatency() float64
	// AverageReadLatency returns the exact mean uncontended read latency
	// over all ordered (from, to) node pairs, local pairs included.
	AverageReadLatency() float64
	// TransferTime returns the time (ns) to stream size bytes across one
	// link at peak bandwidth, excluding per-transaction latency.
	TransferTime(size int) float64
	// DistanceClass maps a node pair to its distance class in
	// [0, NumDistanceClasses): an index such that every pair of the class
	// has bit-identical ReadLatency. Class 0 is the local (from == to)
	// pairs. The pricing tables are memoized per class, not per pair, so
	// the memo stays O(classes) at any machine size.
	DistanceClass(from, to int) int
	// NumDistanceClasses returns the number of distance classes. Not
	// every class below the bound need be inhabited.
	NumDistanceClasses() int
}

// builders maps each kind name to its constructor.
var builders = map[string]func(Config) (Network, error){
	KindHypercube: func(cfg Config) (Network, error) { return NewHypercube(cfg) },
	KindFatTree:   newFatTree,
	KindTorus:     newTorus2D,
	KindTorus3D:   newTorus3D,
	KindDragonfly: newDragonfly,
	KindNUMA2:     newNUMA2,
}

// Kinds returns the kind names, sorted.
func Kinds() []string {
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New validates cfg and builds the network of cfg.Kind ("" selects the
// hypercube). Validation is per kind: only the hypercube requires a
// power-of-two router count, each other shape checks exactly the
// constraints it needs.
func New(cfg Config) (Network, error) {
	kind := cfg.Kind
	if kind == "" {
		kind = KindHypercube
	}
	build, ok := builders[kind]
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q (known: %s)",
			cfg.Kind, strings.Join(Kinds(), ", "))
	}
	return build(cfg)
}

// MustNew is New but panics on configuration errors. It is intended for
// the package-level machine presets, whose parameters are static.
func MustNew(cfg Config) Network {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// shapeOf validates the generic fields every kind shares and returns the
// node and router counts.
func shapeOf(cfg Config) (nodes, routers int, err error) {
	if cfg.Processors <= 0 {
		return 0, 0, fmt.Errorf("topology: processors must be positive, got %d", cfg.Processors)
	}
	if cfg.ProcsPerNode <= 0 {
		return 0, 0, fmt.Errorf("topology: procs per node must be positive, got %d", cfg.ProcsPerNode)
	}
	if cfg.NodesPerRouter <= 0 {
		return 0, 0, fmt.Errorf("topology: nodes per router must be positive, got %d", cfg.NodesPerRouter)
	}
	if cfg.Processors%cfg.ProcsPerNode != 0 {
		return 0, 0, fmt.Errorf("topology: processors (%d) not a multiple of procs per node (%d)",
			cfg.Processors, cfg.ProcsPerNode)
	}
	nodes = cfg.Processors / cfg.ProcsPerNode
	routers = (nodes + cfg.NodesPerRouter - 1) / cfg.NodesPerRouter
	return nodes, routers, nil
}

// base carries the state and methods every Network implementation
// shares: the configuration, node mapping, link arithmetic, and the
// distance statistics computed once at construction by finalize.
type base struct {
	cfg     Config
	kind    string
	nodes   int
	routers int

	maxHops  int
	furthest float64
	average  float64
}

func (b *base) Kind() string          { return b.kind }
func (b *base) Config() Config        { return b.cfg }
func (b *base) Processors() int       { return b.cfg.Processors }
func (b *base) Nodes() int            { return b.nodes }
func (b *base) Routers() int          { return b.routers }
func (b *base) LocalLatency() float64 { return b.cfg.LocalLatency }
func (b *base) MaxHops() int          { return b.maxHops }

// NodeOf returns the node housing processor p.
func (b *base) NodeOf(p int) int {
	if p < 0 || p >= b.cfg.Processors {
		panic(fmt.Sprintf("topology: processor %d out of range [0,%d)", p, b.cfg.Processors))
	}
	return p / b.cfg.ProcsPerNode
}

// FurthestReadLatency returns the uncontended latency to the furthest
// memory.
func (b *base) FurthestReadLatency() float64 { return b.furthest }

// AverageReadLatency returns the exact all-pairs mean uncontended read
// latency, precomputed at construction.
func (b *base) AverageReadLatency() float64 { return b.average }

// TransferTime returns the time (ns) to stream size bytes across one
// link at peak bandwidth. Latency is not included; callers add the
// appropriate per-transaction latency separately.
func (b *base) TransferTime(size int) float64 {
	if size <= 0 {
		return 0
	}
	return float64(size) / b.cfg.LinkBandwidth
}

// finalize computes the distance statistics — max hops, furthest read
// latency, and the exact all-pairs mean read latency — by scanning every
// ordered node pair of the finished network. Row sums accumulate before
// the total so the addition order (and hence the stored float) is a
// deterministic function of the shape alone.
func (b *base) finalize(n Network) {
	total := 0.0
	for a := 0; a < b.nodes; a++ {
		row := 0.0
		for v := 0; v < b.nodes; v++ {
			if h := n.Hops(a, v); h > b.maxHops {
				b.maxHops = h
			}
			lat := n.ReadLatency(a, v)
			if lat > b.furthest {
				b.furthest = lat
			}
			row += lat
		}
		total += row
	}
	b.average = total / float64(b.nodes*b.nodes)
}
