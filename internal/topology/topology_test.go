package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func all(t *testing.T) []Topology {
	t.Helper()
	var out []Topology
	mk := func(tp Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
	mk(newRing(7))
	mk(NewMesh(4, 3))
	mk(NewTorus(4, 4))
	mk(newHypercube(16))
	mk(newStar(6))
	mk(newFull(5))
	mk(NewTorus3D(3, 4, 2))
	mk(newFatTree(4, 2))
	mk(newDragonfly(2, 2, 5))
	return out
}

// Every topology: Neighbor is -1 outside [0, Degree()), the neighbor
// relation is symmetric, and routing reaches every destination along ports
// that exist.
func TestTopologyInvariants(t *testing.T) {
	for _, tp := range all(t) {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			n, deg := tp.Nodes(), tp.Degree()
			for a := 0; a < n; a++ {
				for _, p := range []int{-1, deg, deg + 1} {
					if b := tp.Neighbor(a, p); b != -1 {
						t.Fatalf("Neighbor(%d,%d) = %d outside [0, Degree %d), want -1", a, p, b, deg)
					}
				}
				for p := 0; p < deg; p++ {
					b := tp.Neighbor(a, p)
					if b < 0 {
						continue
					}
					// Symmetry: some port of b must lead back to a.
					found := false
					for q := 0; q < deg && !found; q++ {
						found = tp.Neighbor(b, q) == a
					}
					if !found {
						t.Fatalf("asymmetric link %d -> %d", a, b)
					}
				}
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a != b {
						distance(tp, a, b) // panics on loops/dead ports
					}
				}
			}
		})
	}
}

func TestRingDistances(t *testing.T) {
	r, _ := newRing(8)
	if d := distance(r, 0, 4); d != 4 {
		t.Fatalf("antipodal distance = %d, want 4", d)
	}
	if d := distance(r, 0, 7); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	if diameter(r) != 4 {
		t.Fatalf("diameter = %d, want 4", diameter(r))
	}
}

// TestRingHalfwayTakesPlusPort: on an even ring both ways to the antipode are
// equally long, and Route breaks the tie towards the + port (0, the
// neighbour at rank+1), from every node; so does each torus dimension.
func TestRingHalfwayTakesPlusPort(t *testing.T) {
	r, _ := newRing(8)
	for a := 0; a < 8; a++ {
		if p := r.Route(a, (a+4)%8); p != 0 || r.Neighbor(a, p) != (a+1)%8 {
			t.Errorf("ring Route(%d, %d) = port %d to %d, want port 0 to %d", a, (a+4)%8, p, r.Neighbor(a, p), (a+1)%8)
		}
	}
	tr, _ := NewTorus(4, 4)
	if p := tr.Route(1, 3); p != 0 { // x: 1 -> 3, two hops either way
		t.Errorf("torus Route(1, 3) = port %d, want 0 (+x)", p)
	}
	if p := tr.Route(13, 5); p != 2 { // y: 3 -> 1, two hops either way
		t.Errorf("torus Route(13, 5) = port %d, want 2 (+y)", p)
	}
}

func TestMeshXYRouting(t *testing.T) {
	m, _ := NewMesh(4, 4)
	// From (0,0) to (3,3): x first.
	if p := m.Route(0, 15); p != 0 { // east
		t.Fatalf("first hop port = %d, want east", p)
	}
	// From (3,0)=3 to (3,3)=15: x aligned, go north.
	if p := m.Route(3, 15); p != 2 { // north
		t.Fatalf("port = %d, want north", p)
	}
	if d := distance(m, 0, 15); d != 6 {
		t.Fatalf("corner distance = %d, want 6", d)
	}
	if diameter(m) != 6 {
		t.Fatalf("mesh diameter = %d, want 6", diameter(m))
	}
}

func TestMeshEdgesHaveDeadPorts(t *testing.T) {
	m, _ := NewMesh(3, 3)
	dead := 0
	for p := 0; p < m.Degree(); p++ {
		if m.Neighbor(0, p) == -1 { // corner
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("corner dead ports = %d, want 2", dead)
	}
}

func TestTorusWrap(t *testing.T) {
	tr, _ := NewTorus(4, 4)
	// 0 -> 3 is one hop west on the torus.
	if d := distance(tr, 0, 3); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	if diameter(tr) != 4 {
		t.Fatalf("torus diameter = %d, want 4", diameter(tr))
	}
	// Torus has no dead ports.
	for a := 0; a < tr.Nodes(); a++ {
		for p := 0; p < tr.Degree(); p++ {
			if tr.Neighbor(a, p) < 0 {
				t.Fatal("torus has dead port")
			}
		}
	}
}

func TestHypercubeEcube(t *testing.T) {
	h, _ := newHypercube(8)
	if d := distance(h, 0, 7); d != 3 {
		t.Fatalf("distance 0->7 = %d, want 3 (popcount)", d)
	}
	if diameter(h) != 3 {
		t.Fatalf("diameter = %d, want 3", diameter(h))
	}
	// e-cube corrects lowest dimension first: 0 -> 6 (bits 110) goes via bit 1.
	if p := h.Route(0, 6); p != 1 {
		t.Fatalf("first port = %d, want 1", p)
	}
}

func TestHypercubeRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := newHypercube(6); err == nil {
		t.Fatal("expected error")
	}
}

func TestStarRouting(t *testing.T) {
	s, _ := newStar(5)
	if d := distance(s, 1, 2); d != 2 {
		t.Fatalf("leaf-to-leaf = %d, want 2", d)
	}
	if d := distance(s, 0, 3); d != 1 {
		t.Fatalf("hub-to-leaf = %d, want 1", d)
	}
	if diameter(s) != 2 {
		t.Fatal("star diameter != 2")
	}
}

func TestFullIsDiameterOne(t *testing.T) {
	f, _ := newFull(6)
	if diameter(f) != 1 {
		t.Fatalf("diameter = %d", diameter(f))
	}
	if Links(f) != 15 {
		t.Fatalf("links = %d, want n(n-1)/2 = 15", Links(f))
	}
}

func TestAvgDistance(t *testing.T) {
	f, _ := newFull(4)
	if avg := avgDistance(f); avg != 1 {
		t.Fatalf("full avg = %v, want 1", avg)
	}
	r, _ := newRing(4)
	// distances from any node: 1,2,1 -> avg 4/3
	if avg := avgDistance(r); avg < 1.32 || avg > 1.35 {
		t.Fatalf("ring(4) avg = %v, want ~1.333", avg)
	}
}

func TestNewFromConfig(t *testing.T) {
	cases := []Config{
		{Kind: Ring, Nodes: 4},
		{Kind: Mesh2D, DimX: 2, DimY: 2},
		{Kind: Torus2D, DimX: 2, DimY: 2},
		{Kind: Hypercube, Nodes: 4},
		{Kind: Star, Nodes: 4},
		{Kind: fullyConnected, Nodes: 4},
	}
	for _, c := range cases {
		tp, err := New(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if tp.Nodes() != 4 {
			t.Fatalf("%v: nodes = %d", c, tp.Nodes())
		}
	}
	if _, err := New(Config{Kind: "nope"}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

// Property: routed distance on the torus never exceeds the analytic minimum
// bound w/2 + h/2, and equals the per-dimension shortest-way sum.
func TestTorusDistanceProperty(t *testing.T) {
	tr, _ := NewTorus(6, 4)
	f := func(a8, b8 uint8) bool {
		a := int(a8) % 24
		b := int(b8) % 24
		if a == b {
			return true
		}
		ax, ay := a%6, a/6
		bx, by := b%6, b/6
		dx := abs(bx - ax)
		if 6-dx < dx {
			dx = 6 - dx
		}
		dy := abs(by - ay)
		if 4-dy < dy {
			dy = 4 - dy
		}
		return distance(tr, a, b) == dx+dy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDatelines(t *testing.T) {
	r, _ := newRing(4)
	// Clockwise dateline at node n-1, counterclockwise at node 0.
	if !r.Dateline(3, 0) || !r.Dateline(0, 1) {
		t.Fatal("ring datelines missing at wrap edges")
	}
	if r.Dateline(1, 0) || r.Dateline(2, 1) {
		t.Fatal("ring dateline on a non-wrap edge")
	}
	if r.PortDim(0) != 0 || r.PortDim(1) != 0 {
		t.Fatal("ring port dims wrong")
	}

	tr, _ := NewTorus(4, 4)
	// East from x=3 wraps; east from x=1 does not.
	if !tr.Dateline(3, 0) || tr.Dateline(1, 0) {
		t.Fatal("torus x dateline wrong")
	}
	// North from y=3 (node 12..15) wraps.
	if !tr.Dateline(13, 2) || tr.Dateline(5, 2) {
		t.Fatal("torus y dateline wrong")
	}
	if tr.PortDim(0) != 0 || tr.PortDim(2) != 1 {
		t.Fatal("torus port dims wrong")
	}

	m, _ := NewMesh(3, 3)
	for n := 0; n < 9; n++ {
		for p := 0; p < 4; p++ {
			if m.Dateline(n, p) {
				t.Fatal("mesh (no wrap) must have no datelines")
			}
		}
	}

	h, _ := newHypercube(8)
	if h.PortDim(2) != 2 || h.Dateline(0, 0) {
		t.Fatal("hypercube dateline data wrong")
	}
	s, _ := newStar(4)
	f, _ := newFull(4)
	if s.Dateline(0, 0) || f.Dateline(0, 0) || s.PortDim(0) != 0 || f.PortDim(0) != 0 {
		t.Fatal("star/full dateline data wrong")
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := newRing(1); err == nil {
		t.Error("ring(1)")
	}
	if _, err := NewMesh(1, 1); err == nil {
		t.Error("mesh(1x1)")
	}
	if _, err := NewTorus(1, 4); err == nil {
		t.Error("torus(1x4)")
	}
	if _, err := newStar(1); err == nil {
		t.Error("star(1)")
	}
	if _, err := newFull(1); err == nil {
		t.Error("full(1)")
	}
}

func TestMinimalPortsContainRouteAndReduceDistance(t *testing.T) {
	for _, tp := range all(t) {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			n := tp.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue
					}
					ports := tp.MinimalPorts(a, b)
					if len(ports) == 0 {
						t.Fatalf("%d->%d: no minimal ports", a, b)
					}
					routePort := tp.Route(a, b)
					found := false
					d := distance(tp, a, b)
					for _, p := range ports {
						if p == routePort {
							found = true
						}
						next := tp.Neighbor(a, p)
						if next < 0 {
							t.Fatalf("%d->%d: minimal port %d is dead", a, b, p)
						}
						if nd := distance(tp, next, b); nd != d-1 {
							t.Fatalf("%d->%d via %d: distance %d -> %d, not minimal", a, b, p, d, nd)
						}
					}
					if !found {
						t.Fatalf("%d->%d: deterministic port %d not in minimal set %v", a, b, routePort, ports)
					}
				}
			}
		})
	}
}

func TestHypercubeAdaptivity(t *testing.T) {
	h, _ := newHypercube(8)
	if got := len(h.MinimalPorts(0, 7)); got != 3 {
		t.Fatalf("0->7 minimal ports = %d, want 3", got)
	}
}

// diameter returns the longest routed distance between any node pair.
func diameter(t Topology) int {
	d := 0
	for a := 0; a < t.Nodes(); a++ {
		for b := 0; b < t.Nodes(); b++ {
			if a == b {
				continue
			}
			if h := distance(t, a, b); h > d {
				d = h
			}
		}
	}
	return d
}

// avgDistance returns the mean routed distance over all ordered pairs.
func avgDistance(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				total += distance(t, a, b)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// distance returns the hop count of the path Route actually takes from a to
// b (0 if a == b). It panics if routing does not converge within Nodes()
// hops, which would mean a broken routing function.
func distance(t Topology, a, b int) int {
	hops := 0
	at := a
	for at != b {
		port := t.Route(at, b)
		next := t.Neighbor(at, port)
		if next < 0 {
			panic(fmt.Sprintf("topology %s: route from %d to %d via dead port %d", t.Name(), at, b, port))
		}
		at = next
		hops++
		if hops > t.Nodes() {
			panic(fmt.Sprintf("topology %s: routing loop from %d to %d", t.Name(), a, b))
		}
	}
	return hops
}
