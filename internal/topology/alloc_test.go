package topology

import "testing"

// The per-hop routing loop — Route, Neighbor, PortDim, Dateline, and a
// Neighbor query on every port — must not allocate: it runs
// once per packet per hop, millions of times in a large run, and any
// allocation here dominates the profile. This gate walks a full route on
// every family with the exact call mix of network.attemptForward.
func TestAllocFreeRoutingHotLoop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mk := func(tp Topology, err error) Topology {
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	tops := []Topology{
		mk(newRing(16)),
		mk(NewMesh(4, 4)),
		mk(NewTorus(4, 4)),
		mk(newHypercube(16)),
		mk(NewTorus3D(4, 4, 4)),
		mk(newFatTree(4, 3)),
		mk(newDragonfly(4, 2, 9)),
	}
	for _, tp := range tops {
		tp := tp
		n := tp.Nodes()
		sink := 0
		if got := testing.AllocsPerRun(100, func() {
			// A far-apart pair walked hop by hop, touching every query the
			// forward loop issues per hop.
			at, to := 0, n-1
			for at != to {
				port := tp.Route(at, to)
				if tp.Dateline(at, port) {
					sink += tp.PortDim(port)
				}
				for p := 0; p < tp.Degree(); p++ {
					sink += tp.Neighbor(at, p)
				}
				at = tp.Neighbor(at, port)
			}
		}); got != 0 {
			t.Errorf("%s: routing hot loop allocates %.1f/run, want 0", tp.Name(), got)
		}
		_ = sink
	}
}
