package topology

import (
	"strings"
	"testing"
)

// props returns every family at property-test size, paired with an upper
// bound on its diameter (structural, not computed — the bound the routing
// property is checked against).
func props(t *testing.T) []struct {
	tp  Topology
	dia int
} {
	t.Helper()
	mk := func(tp Topology, err error) Topology {
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	return []struct {
		tp  Topology
		dia int
	}{
		{mk(newRing(9)), 4},
		{mk(NewMesh(4, 4)), 6},
		{mk(NewTorus(4, 5)), 4},
		{mk(newHypercube(32)), 5},
		{mk(newStar(8)), 2},
		{mk(newFull(7)), 1},
		{mk(NewTorus3D(3, 4, 5)), 1 + 2 + 2},
		{mk(NewTorus3D(2, 2, 2)), 3},
		{mk(newFatTree(4, 2)), 2 * 2},  // host-switch-...-switch-host
		{mk(newFatTree(2, 3)), 2 * 3},  // binary, three tiers
		{mk(newDragonfly(2, 2, 5)), 5}, // intra + global + intra, with slack
		{mk(newDragonfly(4, 1, 5)), 5}, // single global link per router
		{mk(newDragonfly(1, 3, 4)), 3}, // single-router groups
	}
}

// Route must reach every destination within the family's diameter bound, and
// every step must use a live port.
func TestRouteReachesWithinDiameter(t *testing.T) {
	for _, c := range props(t) {
		tp, bound := c.tp, c.dia
		t.Run(tp.Name(), func(t *testing.T) {
			n := tp.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue
					}
					if d := distance(tp, a, b); d > bound {
						t.Fatalf("route %d->%d takes %d hops, diameter bound %d", a, b, d, bound)
					}
				}
			}
		})
	}
}

// MinimalPorts must contain the deterministic Route port, and following any
// advertised minimal port must strictly reduce the routed distance.
func TestMinimalPortsConsistent(t *testing.T) {
	for _, c := range props(t) {
		tp := c.tp
		t.Run(tp.Name(), func(t *testing.T) {
			n := tp.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue
					}
					ports := tp.MinimalPorts(a, b)
					if len(ports) == 0 {
						t.Fatalf("MinimalPorts(%d,%d) empty", a, b)
					}
					route := tp.Route(a, b)
					found := false
					d := distance(tp, a, b)
					for _, p := range ports {
						if p == route {
							found = true
						}
						next := tp.Neighbor(a, p)
						if next < 0 {
							t.Fatalf("MinimalPorts(%d,%d) advertises dead port %d", a, b, p)
						}
						nd := 0
						if next != b {
							nd = distance(tp, next, b)
						}
						if nd != d-1 {
							t.Fatalf("MinimalPorts(%d,%d): port %d leads to distance %d, want %d", a, b, p, nd, d-1)
						}
					}
					if !found {
						t.Fatalf("MinimalPorts(%d,%d) = %v misses Route port %d", a, b, ports, route)
					}
				}
			}
		})
	}
}

// Wormhole deadlock freedom rests on each route crossing each dimension's
// dateline at most once: the virtual-channel switch is then monotone
// (vc0 -> vc1, never back), which breaks every cyclic channel dependency.
func TestDatelineCrossedAtMostOncePerDimension(t *testing.T) {
	for _, c := range props(t) {
		tp := c.tp
		t.Run(tp.Name(), func(t *testing.T) {
			crossings := make([]int, tp.Degree()) // PortDim < Degree
			for a := 0; a < tp.Nodes(); a++ {
				for b := 0; b < tp.Nodes(); b++ {
					if a == b {
						continue
					}
					for i := range crossings {
						crossings[i] = 0
					}
					at := a
					for at != b {
						port := tp.Route(at, b)
						if d := tp.PortDim(port); tp.Dateline(at, port) {
							if crossings[d]++; crossings[d] > 1 {
								t.Fatalf("route %d->%d crosses dimension %d's dateline twice", a, b, d)
							}
						}
						at = tp.Neighbor(at, port)
					}
				}
			}
		})
	}
}

// Host-addressed fat-tree routes are strictly up*/down* — once a route
// starts descending it never climbs again. With datelines unused (Dateline
// is constant false), this is the property wormhole deadlock freedom rests
// on for application (host-to-host) traffic. Switch-addressed routes (a
// diagnostic, not an application pattern) may alternate: the minimal path
// between peer switches descends to a shared child before climbing.
func TestFatTreeUpDownRouting(t *testing.T) {
	ft, err := newFatTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := ft.(*fattree)
	for a := 0; a < ft.Nodes(); a++ {
		for b := 0; b < f.hosts; b++ {
			if a == b {
				continue
			}
			at, descended := a, false
			for at != b {
				port := ft.Route(at, b)
				next := ft.Neighbor(at, port)
				lAt, _ := f.locate(at)
				lNext, _ := f.locate(next)
				if lNext > lAt {
					if descended {
						t.Fatalf("host-addressed route %d->%d climbs again after descending (at node %d)", a, b, at)
					}
				} else {
					descended = true
				}
				at = next
			}
		}
	}
}

// Dragonfly minimal routes use at most one global hop, so the global-port
// dateline switches the virtual channel at most once per route.
func TestDragonflyOneGlobalHop(t *testing.T) {
	df, err := newDragonfly(3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < df.Nodes(); a++ {
		for b := 0; b < df.Nodes(); b++ {
			if a == b {
				continue
			}
			at, globals := a, 0
			for at != b {
				port := df.Route(at, b)
				if df.Dateline(at, port) {
					globals++
				}
				at = df.Neighbor(at, port)
			}
			if globals > 1 {
				t.Fatalf("route %d->%d takes %d global hops, want <= 1", a, b, globals)
			}
		}
	}
}

// Constructor validation must name the offending configuration field, so a
// config error is actionable without reading the source.
func TestHierarchyValidationNamesFields(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Kind: Torus3D, DimX: 1, DimY: 4, DimZ: 4}, "DimX"},
		{Config{Kind: Torus3D, DimX: 4, DimY: 4, DimZ: 0}, "DimZ"},
		{Config{Kind: FatTree, Arity: 3, Levels: 2}, "Arity"},
		{Config{Kind: FatTree, Arity: 0, Levels: 2}, "Arity"},
		{Config{Kind: FatTree, Arity: 4, Levels: 0}, "Levels"},
		{Config{Kind: Dragonfly, Routers: 0, Globals: 2, Groups: 5}, "Routers"},
		{Config{Kind: Dragonfly, Routers: 2, Globals: 0, Groups: 5}, "Globals"},
		{Config{Kind: Dragonfly, Routers: 2, Globals: 2, Groups: 1}, "Groups"},
		{Config{Kind: Dragonfly, Routers: 2, Globals: 1, Groups: 9}, "Routers*Globals"},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if err == nil {
			t.Errorf("%+v: expected error naming %s", c.cfg, c.field)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %q does not name field %s", c.cfg, err, c.field)
		}
	}
}

// A million-node machine of each hierarchical family must construct
// instantly (generator-backed, no adjacency materialisation) and route in
// O(1) per hop.
func TestMillionNodeConstruction(t *testing.T) {
	mk := func(tp Topology, err error) Topology {
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for _, tp := range []Topology{
		mk(NewTorus3D(100, 100, 100)),   // 1,000,000 nodes
		mk(newFatTree(32, 4)),           // 32^4 = 1,048,576 hosts + 131,072 switches
		mk(newDragonfly(1024, 1, 1025)), // 1024 routers x 1025 groups = 1,049,600
	} {
		n := tp.Nodes()
		if n < 1_000_000 {
			t.Fatalf("%s: %d nodes, want >= 1M", tp.Name(), n)
		}
		// Spot-check routing across the machine: far corners and a few
		// midpoints. Distance walks the route and panics on loops.
		pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {1, n / 2}, {n / 3, 2 * n / 3}}
		for _, pr := range pairs {
			if pr[0] == pr[1] {
				continue
			}
			distance(tp, pr[0], pr[1])
		}
		// Neighbor symmetry on a sample of nodes.
		for _, a := range []int{0, 1, n / 2, n - 1} {
			for p := 0; p < tp.Degree(); p++ {
				b := tp.Neighbor(a, p)
				if b < 0 {
					continue
				}
				back := false
				for q := 0; q < tp.Degree(); q++ {
					if tp.Neighbor(b, q) == a {
						back = true
						break
					}
				}
				if !back {
					t.Fatalf("%s: asymmetric link %d -> %d", tp.Name(), a, b)
				}
			}
		}
	}
}
