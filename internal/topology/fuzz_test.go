package topology

import "testing"

// FuzzParseSpec feeds arbitrary specs through ParseSpec and New — the path a
// -topology flag or a job's "topology" field takes. Neither may panic, and an
// accepted topology must respect the node bound, name itself, wire the
// ports of its first and last node only to nodes it has, and answer -1 for
// their ports outside [0, Degree()). Seeds:
// testdata/fuzz/FuzzParseSpec (the ParseSpec doc examples and the oversized
// specs the size bounds reject).
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		tp, err := New(cfg)
		if err != nil {
			return
		}
		n := tp.Nodes()
		if n < 1 || n > maxTopologyNodes {
			t.Fatalf("%q: %d nodes accepted", spec, n)
		}
		name := tp.Name()
		// Degree may legitimately reach 2^30 (a two-node dragonfly); walk
		// its ends, not all of it.
		const span = 1 << 12
		deg := tp.Degree()
		for _, node := range []int{0, n - 1} {
			for _, port := range []int{-1, deg} {
				if nb := tp.Neighbor(node, port); nb != -1 {
					t.Fatalf("%s: node %d port %d outside [0, Degree %d) leads to %d, want -1", name, node, port, deg, nb)
				}
			}
			for port := 0; port < deg; port++ {
				if port == span && deg > 2*span {
					port = deg - span
				}
				if nb := tp.Neighbor(node, port); nb < -1 || nb >= n {
					t.Fatalf("%s: node %d port %d leads to %d, outside [0, %d)", name, node, port, nb, n)
				}
			}
		}
	})
}
