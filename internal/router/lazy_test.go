package router

import (
	"testing"

	"mermaid/internal/topology"
)

// Every LazyTable row must be identical to the corresponding eager BuildTable
// row — same BFS, same lowest-port tie-break — across families and fault
// masks. This is the contract that lets the network swap backends without
// changing any routing decision.
func TestLazyTableMatchesEagerTable(t *testing.T) {
	configs := []topology.Config{
		{Kind: topology.Ring, Nodes: 7},
		{Kind: topology.Mesh2D, DimX: 4, DimY: 3},
		{Kind: topology.Torus2D, DimX: 4, DimY: 4},
		{Kind: topology.Hypercube, Nodes: 16},
		{Kind: topology.Star, Nodes: 6},
		{Kind: topology.Torus3D, DimX: 3, DimY: 3, DimZ: 2},
		{Kind: topology.FatTree, Arity: 4, Levels: 2},
		{Kind: topology.Dragonfly, Routers: 2, Globals: 2, Groups: 5},
	}
	masks := []func(topo topology.Topology) func(node, port int) bool{
		// Healthy graph.
		func(topology.Topology) func(node, port int) bool { return nil },
		// One dead directed link out of node 0.
		func(topology.Topology) func(node, port int) bool {
			return func(node, port int) bool { return !(node == 0 && port == 0) }
		},
		// Node 1 fully isolated (all its ports dead in both directions).
		func(topo topology.Topology) func(node, port int) bool {
			return func(node, port int) bool {
				return node != 1 && topo.Neighbor(node, port) != 1
			}
		},
	}
	for _, cfg := range configs {
		topo := mustTopo(t, cfg)
		for mi, mkMask := range masks {
			alive := mkMask(topo)
			eager := mustBuild(t, topo, alive)
			lazy := NewLazyTable(topo, alive)
			n := topo.Nodes()
			for to := 0; to < n; to++ {
				for at := 0; at < n; at++ {
					if e, l := eager.port(at, to), lazy.Port(at, to); e != l {
						t.Fatalf("%s mask %d: Port(%d,%d) eager %d, lazy %d", topo.Name(), mi, at, to, e, l)
					}
				}
			}
		}
	}
}

// Invalidate must drop cached rows so queries see the current live graph.
func TestLazyTableInvalidate(t *testing.T) {
	topo := mustTopo(t, topology.Config{Kind: topology.Ring, Nodes: 6})
	dead := false
	alive := func(node, port int) bool { return !(dead && node == 0 && port == 0) }
	lt := NewLazyTable(topo, alive)

	before := lt.Port(0, 1)
	dead = true
	if got := lt.Port(0, 1); got != before {
		t.Fatalf("cached row changed without Invalidate: %d -> %d", before, got)
	}
	lt.Invalidate()
	want := mustBuild(t, topo, alive)
	for to := 0; to < topo.Nodes(); to++ {
		for at := 0; at < topo.Nodes(); at++ {
			if e, l := want.port(at, to), lt.Port(at, to); e != l {
				t.Fatalf("after Invalidate: Port(%d,%d) = %d, want %d", at, to, l, e)
			}
		}
	}
}

// Above MaxEagerTableNodes the eager table refuses (naming the lazy
// alternative) while the lazy backend serves queries without materialising
// anything but the touched rows.
func TestLazyTableScalesPastEagerLimit(t *testing.T) {
	topo := mustTopo(t, topology.Config{Kind: topology.Torus3D, DimX: 32, DimY: 32, DimZ: 32})
	if topo.Nodes() <= maxEagerTableNodes {
		t.Fatalf("test topology too small: %d nodes", topo.Nodes())
	}
	if _, err := BuildTable(topo, nil); err == nil {
		t.Fatal("BuildTable must refuse an O(N²) build above MaxEagerTableNodes")
	}
	lt := NewLazyTable(topo, nil)
	n := topo.Nodes()
	for _, pair := range [][2]int{{0, n - 1}, {n / 2, 0}, {1, n / 3}} {
		at, to := pair[0], pair[1]
		hops := 0
		for at != to {
			port := lt.Port(at, to)
			if port < 0 {
				t.Fatalf("dead end at %d towards %d on a healthy graph", at, to)
			}
			at = topo.Neighbor(at, port)
			if hops++; hops > 3*32 {
				t.Fatalf("route %d->%d exceeds diameter", pair[0], to)
			}
		}
	}
}
