package router

import (
	"testing"

	"mermaid/internal/topology"
)

func mustTopo(t *testing.T, cfg topology.Config) topology.Topology {
	t.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustBuild(t *testing.T, topo topology.Topology, alive func(node, port int) bool) *Table {
	t.Helper()
	tb, err := BuildTable(topo, alive)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// walk follows the table from `at` to `to`, returning the hop count, and
// fails the test on a dead end or a loop.
func walk(t *testing.T, topo topology.Topology, tb *Table, at, to int) int {
	t.Helper()
	hops := 0
	for at != to {
		port := tb.port(at, to)
		if port < 0 {
			t.Fatalf("dead end at node %d towards %d", at, to)
		}
		at = topo.Neighbor(at, port)
		if hops++; hops > topo.Nodes() {
			t.Fatalf("routing loop towards %d", to)
		}
	}
	return hops
}

func TestTableHealthyMatchesMinimalRouting(t *testing.T) {
	for _, cfg := range []topology.Config{
		{Kind: topology.Ring, Nodes: 6},
		{Kind: topology.Mesh2D, DimX: 3, DimY: 3},
		{Kind: topology.Hypercube, Nodes: 8},
	} {
		topo := mustTopo(t, cfg)
		tb := mustBuild(t, topo, nil)
		for from := 0; from < topo.Nodes(); from++ {
			for to := 0; to < topo.Nodes(); to++ {
				if from == to {
					if tb.port(from, to) != -1 {
						t.Errorf("%s: Port(%d,%d) = %d, want -1 for self", topo.Name(), from, to, tb.port(from, to))
					}
					continue
				}
				got := walk(t, topo, tb, from, to)
				// The static routing function is minimal on these topologies:
				// following it gives the shortest-path hop count.
				want := 0
				for at := from; at != to; want++ {
					at = topo.Neighbor(at, topo.Route(at, to))
				}
				if got != want {
					t.Errorf("%s: table path %d->%d takes %d hops, minimal is %d", topo.Name(), from, to, got, want)
				}
			}
		}
	}
}

func TestTableRoutesAroundDeadLink(t *testing.T) {
	// 2x2 mesh:  0 - 1
	//            |   |
	//            2 - 3
	// Kill the 0-1 link (both directions); 0 -> 1 must re-path via 2 and 3.
	topo := mustTopo(t, topology.Config{Kind: topology.Mesh2D, DimX: 2, DimY: 2})
	dead := func(node, port int) bool {
		nb := topo.Neighbor(node, port)
		return (node == 0 && nb == 1) || (node == 1 && nb == 0)
	}
	tb := mustBuild(t, topo, func(node, port int) bool { return !dead(node, port) })
	// Every pair stays reachable, and no route crosses the dead link.
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from == to {
				continue
			}
			at := from
			for hops := 0; at != to; hops++ {
				port := tb.port(at, to)
				if port < 0 {
					t.Fatalf("%d->%d unreachable after single link death", from, to)
				}
				if dead(at, port) {
					t.Fatalf("route %d->%d crosses the dead link at node %d", from, to, at)
				}
				at = topo.Neighbor(at, port)
				if hops > 4 {
					t.Fatalf("routing loop %d->%d", from, to)
				}
			}
		}
	}
	if got := walk(t, topo, tb, 0, 1); got != 3 {
		t.Errorf("0->1 detour takes %d hops, want 3 (via 2 and 3)", got)
	}
}

func TestTableUnreachableAndSelf(t *testing.T) {
	// Partition a 4-ring into {0,1} and {2,3} by killing links 1-2 and 3-0.
	topo := mustTopo(t, topology.Config{Kind: topology.Ring, Nodes: 4})
	alive := func(node, port int) bool {
		nb := topo.Neighbor(node, port)
		cut := func(a, b int) bool {
			return (node == a && nb == b) || (node == b && nb == a)
		}
		return !cut(1, 2) && !cut(3, 0)
	}
	tb := mustBuild(t, topo, alive)
	if tb.port(0, 2) != -1 {
		t.Error("node 2 reachable from 0 across the partition")
	}
	if tb.port(0, 1) < 0 {
		t.Error("node 1 unreachable from 0 within the partition")
	}
}

func TestTableRebuildIsDeterministic(t *testing.T) {
	topo := mustTopo(t, topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4})
	a := mustBuild(t, topo, nil)
	b := mustBuild(t, topo, nil)
	for from := 0; from < topo.Nodes(); from++ {
		for to := 0; to < topo.Nodes(); to++ {
			if a.port(from, to) != b.port(from, to) {
				t.Fatalf("rebuild diverges at (%d,%d): %d vs %d", from, to, a.port(from, to), b.port(from, to))
			}
		}
	}
}

// port returns the output port at `at` towards `to`, or -1 when `to` is
// currently unreachable. at == to returns -1 (local delivery never routes).
func (tb *Table) port(at, to int) int {
	return int(tb.next[to*tb.nodes+at])
}
