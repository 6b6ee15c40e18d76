package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// cubeWiringDigests holds one SHA-256 per ring, mesh, torus and torus3d
// instance of every query the network issues: Name, Degree, Neighbor on
// every port of [-1, Degree()], Route and MinimalPorts on every ordered
// pair of distinct nodes, Dateline on every node and port of [-1,
// Degree()], and PortDim on every port below Degree(). The digests were
// printed by the separate ring, mesh and torus3d generators; any change to
// wiring, routing, datelines or naming of these families moves one.
var cubeWiringDigests = map[string]string{
	"ring(2)":        "4afbe308ee33671433a98ef60a59770749211ac25396a912662c84088b4e5236",
	"ring(5)":        "6393138aa52001e946458d0de228e875cca63d7b5e3c80dc5cdfc865a2ede511",
	"mesh(1x6)":      "80fd2db471ba7bacc1434ed2125616762bfa356671de6aaa5c5a3e8199785678",
	"mesh(3x4)":      "32ed16e919e4978504367796b2fed9003323832431dd9f47e95f570171bcb752",
	"torus(2x2)":     "64286f4c2b76188c2b4ce1d1a9c64cdb6c1963e443f64f445ef9808e75672bcd",
	"torus(4x3)":     "8a8fbbe6fee98407b87210051fa04b5381d34caebf8bd19d4a65806d8a4b95c0",
	"torus3d(2x2x2)": "a0acfd0eeefa2668ccf556b976fbe774ebeb542f5416ab22da87fba0f789fb79",
	"torus3d(4x3x2)": "3a1756a3b9fc6e63c5090777a23b178991c22e0f6673ad17dcf1244890ac5520",
}

func wiringDigest(tp Topology) string {
	h := sha256.New()
	n, deg := tp.Nodes(), tp.Degree()
	fmt.Fprintf(h, "%s nodes=%d degree=%d\n", tp.Name(), n, deg)
	for p := 0; p < deg; p++ {
		fmt.Fprintf(h, "dim %d %d\n", p, tp.PortDim(p))
	}
	for a := 0; a < n; a++ {
		for p := -1; p <= deg; p++ {
			fmt.Fprintf(h, "nb %d %d %d %t\n", a, p, tp.Neighbor(a, p), tp.Dateline(a, p))
		}
		for b := 0; b < n; b++ {
			if a != b {
				fmt.Fprintf(h, "route %d %d %d %v\n", a, b, tp.Route(a, b), tp.MinimalPorts(a, b))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCubeWiringDigests(t *testing.T) {
	for _, mk := range []func() (Topology, error){
		func() (Topology, error) { return newRing(2) },
		func() (Topology, error) { return newRing(5) },
		func() (Topology, error) { return NewMesh(1, 6) },
		func() (Topology, error) { return NewMesh(3, 4) },
		func() (Topology, error) { return NewTorus(2, 2) },
		func() (Topology, error) { return NewTorus(4, 3) },
		func() (Topology, error) { return NewTorus3D(2, 2, 2) },
		func() (Topology, error) { return NewTorus3D(4, 3, 2) },
	} {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := cubeWiringDigests[tp.Name()]
		if !ok {
			t.Fatalf("no digest for %s", tp.Name())
		}
		if got := wiringDigest(tp); got != want {
			t.Errorf("%s: wiring digest %s, want %s", tp.Name(), got, want)
		}
	}
}
