// Package topology describes the physical interconnect of the multicomputer:
// how the nodes of the multi-node communication model (Fig. 3b) are wired
// together, and the deterministic minimal routing function the routers use.
// Provided shapes: ring, 2-D mesh, 2-D torus, 3-D torus, hypercube, star,
// fully connected, k-ary fat-tree and dragonfly; all are parameterised by
// size, per the workbench goal of evaluating a wide range of design options.
// Ring, mesh, torus and torus3d are one k-ary n-cube generator (cube.go)
// that differ only in their sizes and whether the dimensions wrap.
//
// Every family is generator-backed: the wiring is a closed-form function of
// the node id, so no adjacency structure is ever materialised and a
// million-node machine costs a few words of memory. Every query but
// MinimalPorts, which returns a fresh slice, is allocation-free.
package topology

import "fmt"

// Topology is a wiring of N nodes plus a deterministic routing function.
// Ports are small integers local to a node, in [0, Degree()). Route returns
// the output port for a packet at `at` heading to `to` along a minimal
// deterministic path (dimension-order on rings, meshes and tori, e-cube on
// hypercubes, up*/down* on fat-trees, minimal group routing on dragonflies).
type Topology interface {
	Name() string
	Nodes() int
	// Degree is the maximum number of ports on any node.
	Degree() int
	// Neighbor returns the node at the far end of `port`, or -1 when the
	// port is unconnected (mesh edges, star leaves) or outside [0, Degree()).
	// It is O(1) and never allocates.
	Neighbor(node, port int) int
	// Route returns the output port at node `at` towards node `to`.
	// at == to is invalid.
	Route(at, to int) int
	// MinimalPorts returns every output port at `at` that lies on some
	// minimal path to `to` (adaptive routers choose among them by local
	// congestion). The deterministic Route port is always included.
	MinimalPorts(at, to int) []int
	// PortDim returns the routing dimension a port belongs to, for
	// per-dimension virtual-channel bookkeeping.
	PortDim(port int) int
	// Dateline reports whether the hop out of `node` via `port` crosses the
	// dimension's dateline (a wraparound edge). Wormhole routers switch to
	// the high virtual channel there, which is what makes wormhole routing
	// deadlock-free on rings and tori (Dally–Seitz).
	Dateline(node, port int) bool
}

// Kind names a topology family.
type Kind string

// Topology families.
const (
	Ring           Kind = "ring"
	Mesh2D         Kind = "mesh"
	Torus2D        Kind = "torus"
	Torus3D        Kind = "torus3d"
	Hypercube      Kind = "hypercube"
	Star           Kind = "star"
	fullyConnected Kind = "full"
	FatTree        Kind = "fattree"
	Dragonfly      Kind = "dragonfly"
)

// Config selects and sizes a topology.
type Config struct {
	Kind Kind
	// Nodes is the node count (ring, hypercube, star, full). For hypercubes
	// it must be a power of two.
	Nodes int
	// DimX and DimY size meshes and tori; DimZ additionally sizes 3-D tori.
	DimX, DimY int
	DimZ       int
	// Arity and Levels size k-ary fat-trees: Arity hosts per leaf switch
	// (a power of two) and Levels switch tiers. See newFatTree.
	Arity, Levels int
	// Routers, Globals and Groups size dragonflies: Routers per group,
	// Globals (global links) per router, Groups in the machine. See
	// newDragonfly.
	Routers, Globals, Groups int
}

// New builds the configured topology.
func New(cfg Config) (Topology, error) {
	switch cfg.Kind {
	case Ring:
		return newRing(cfg.Nodes)
	case Mesh2D:
		return NewMesh(cfg.DimX, cfg.DimY)
	case Torus2D:
		return NewTorus(cfg.DimX, cfg.DimY)
	case Torus3D:
		return NewTorus3D(cfg.DimX, cfg.DimY, cfg.DimZ)
	case Hypercube:
		return newHypercube(cfg.Nodes)
	case Star:
		return newStar(cfg.Nodes)
	case fullyConnected:
		return newFull(cfg.Nodes)
	case FatTree:
		return newFatTree(cfg.Arity, cfg.Levels)
	case Dragonfly:
		return newDragonfly(cfg.Routers, cfg.Globals, cfg.Groups)
	}
	return nil, fmt.Errorf("topology: unknown kind %q", cfg.Kind)
}

// Every family is bounded twice: at most maxTopologyNodes nodes, so id
// arithmetic stays well inside int range, and at most maxTopologyChannels
// directed channels — nodes × Degree(), the per-port state every network
// engine allocates up front — so an oversized spec (they arrive from the
// command line and from job submissions) is an error, not a failed
// multi-gigabyte allocation. The channel bound is what limits the families
// whose degree grows with their size (star, full).
const (
	maxTopologyNodes          = 1 << 30
	maxTopologyChannels int64 = 1 << 31
)

// product returns the product of dims (each >= 1), or maxTopologyNodes+1 as
// soon as it exceeds maxTopologyNodes: overflow-free node counting.
func product(dims ...int) int {
	p := 1
	for _, d := range dims {
		if p > maxTopologyNodes/d {
			return maxTopologyNodes + 1
		}
		p *= d
	}
	return p
}

// checkSize applies both bounds to a topology of `nodes` nodes (from
// product, or otherwise overflow-free) with `degree` ports each.
func checkSize(name string, nodes, degree int) error {
	if nodes > maxTopologyNodes {
		return fmt.Errorf("topology: %s exceeds %d nodes", name, maxTopologyNodes)
	}
	if int64(nodes) > maxTopologyChannels/int64(degree) {
		return fmt.Errorf("topology: %s exceeds %d directed channels (%d nodes of degree %d)",
			name, maxTopologyChannels, nodes, degree)
	}
	return nil
}

// Links counts the distinct physical links (unordered neighbor pairs).
func Links(t Topology) int {
	n := 0
	for a := 0; a < t.Nodes(); a++ {
		for p := 0; p < t.Degree(); p++ {
			if t.Neighbor(a, p) > a {
				n++
			}
		}
	}
	return n
}

// hypercube

type hypercube struct {
	n, dim int
}

// newHypercube builds a hypercube of n nodes (n a power of two >= 2), with
// e-cube routing (correct the lowest differing dimension first).
func newHypercube(n int) (Topology, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("topology: hypercube needs a power-of-two node count, got %d", n)
	}
	dim := 0
	for x := n; x > 1; x >>= 1 {
		dim++
	}
	if err := checkSize(fmt.Sprintf("hypercube(%d)", n), n, dim); err != nil {
		return nil, err
	}
	return &hypercube{n, dim}, nil
}

func (h *hypercube) Name() string { return fmt.Sprintf("hypercube(%d)", h.n) }
func (h *hypercube) Nodes() int   { return h.n }
func (h *hypercube) Degree() int  { return h.dim }
func (h *hypercube) Neighbor(node, port int) int {
	if port < 0 || port >= h.dim {
		return -1
	}
	return node ^ (1 << port)
}
func (h *hypercube) Route(at, to int) int {
	diff := at ^ to
	if diff == 0 {
		panic("topology: Route(at, at)")
	}
	for i := 0; i < h.dim; i++ {
		if diff&(1<<i) != 0 {
			return i
		}
	}
	panic("unreachable")
}

// star

type star struct{ n int }

// newStar builds a star: node 0 is the hub, nodes 1..n-1 are leaves.
func newStar(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs >= 2 nodes, got %d", n)
	}
	if err := checkSize(fmt.Sprintf("star(%d)", n), n, n-1); err != nil {
		return nil, err
	}
	return &star{n}, nil
}

func (s *star) Name() string { return fmt.Sprintf("star(%d)", s.n) }
func (s *star) Nodes() int   { return s.n }
func (s *star) Degree() int  { return s.n - 1 }
func (s *star) Neighbor(node, port int) int {
	if node == 0 {
		if port >= 0 && port < s.n-1 {
			return port + 1
		}
		return -1
	}
	if port == 0 {
		return 0
	}
	return -1
}
func (s *star) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	if at == 0 {
		return to - 1
	}
	return 0 // to the hub
}

// fully connected

type full struct{ n int }

// newFull builds a fully connected (crossbar-like) topology.
func newFull(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: full needs >= 2 nodes, got %d", n)
	}
	if err := checkSize(fmt.Sprintf("full(%d)", n), n, n-1); err != nil {
		return nil, err
	}
	return &full{n}, nil
}

func (f *full) Name() string { return fmt.Sprintf("full(%d)", f.n) }
func (f *full) Nodes() int   { return f.n }
func (f *full) Degree() int  { return f.n - 1 }
func (f *full) Neighbor(node, port int) int {
	if port < 0 || port >= f.n-1 {
		return -1
	}
	if port < node {
		return port
	}
	return port + 1
}
func (f *full) Route(at, to int) int {
	if at == to {
		panic("topology: Route(at, at)")
	}
	if to > at {
		return to - 1
	}
	return to
}

// Dateline bookkeeping: hypercubes route
// e-cube (no wraparound channels), stars and fully connected graphs have
// single-hop routes, so no virtual-channel datelines are needed.

func (h *hypercube) PortDim(port int) int   { return port }
func (h *hypercube) Dateline(int, int) bool { return false }

func (s *star) PortDim(int) int        { return 0 }
func (s *star) Dateline(int, int) bool { return false }

func (f *full) PortDim(int) int        { return 0 }
func (f *full) Dateline(int, int) bool { return false }

// MinimalPorts implementations: every port that strictly reduces the
// remaining distance.

func (h *hypercube) MinimalPorts(at, to int) []int {
	diff := at ^ to
	var out []int
	for i := 0; i < h.dim; i++ {
		if diff&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func (s *star) MinimalPorts(at, to int) []int { return []int{s.Route(at, to)} }
func (f *full) MinimalPorts(at, to int) []int { return []int{f.Route(at, to)} }
