package topology

import "testing"

// BenchmarkScaleRouting measures the per-hop cost of purely algorithmic
// routing on million-node machines of four families: one Route + Dateline +
// Neighbor step, the exact per-hop query mix of the network forward loop.
// There is no adjacency structure and no table — the figure of merit is a
// handful of nanoseconds per hop, flat in machine size.
func BenchmarkScaleRouting(b *testing.B) {
	mk := func(tp Topology, err error) Topology {
		if err != nil {
			b.Fatal(err)
		}
		return tp
	}
	for _, tp := range []Topology{
		mk(NewMesh(1000, 1000)),         // 1,000,000 nodes, no wraparound
		mk(NewTorus3D(100, 100, 100)),   // 1,000,000 nodes
		mk(newFatTree(32, 4)),           // 1,179,648 nodes
		mk(newDragonfly(1024, 1, 1025)), // 1,049,600 nodes
	} {
		tp := tp
		b.Run(tp.Name(), func(b *testing.B) {
			n := tp.Nodes()
			sink, hops := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Walk a long route end to end; vary the pair so the
				// branch mix covers ascent, descent and wraparound.
				at, to := i%n, (i*7919+n/2)%n
				for at != to {
					port := tp.Route(at, to)
					if tp.Dateline(at, port) {
						sink++
					}
					at = tp.Neighbor(at, port)
					hops++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
			_ = sink
		})
	}
}
