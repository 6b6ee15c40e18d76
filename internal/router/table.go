package router

import (
	"fmt"

	"mermaid/internal/topology"
)

// Table is a next-hop routing table computed over the currently-alive links
// of a topology — the re-pathing half of the resilient-communication model.
// While the fault subsystem is active, routers route by table lookup instead
// of the topology's static minimal routing function, and the table is
// recomputed (by breadth-first search over the live graph) on every
// topology-change event, so traffic flows around dead links and crashed
// nodes whenever any path survives.
//
// Construction is deterministic: ties between equally short paths always
// resolve to the lowest port number, so every rebuild of the same live graph
// yields the same table.
type Table struct {
	nodes int
	// next[dest*nodes+at] is the output port at `at` towards `dest`, or -1
	// when dest is unreachable (or at == dest).
	next []int16
}

// maxEagerTableNodes caps BuildTable: the eager table is O(N²) in both time
// and memory (a 100k-node machine would silently allocate a 20 GB next-hop
// array), so above this threshold BuildTable refuses and callers must use
// the per-destination LazyTable backend instead.
const maxEagerTableNodes = 8192

// BuildTable computes next-hop ports for every (node, destination) pair over
// the links for which alive(node, port) is true. A nil alive means every
// connected port is alive. Topologies above maxEagerTableNodes are rejected
// with an error naming the lazy alternative.
func BuildTable(t topology.Topology, alive func(node, port int) bool) (*Table, error) {
	n := t.Nodes()
	if n > maxEagerTableNodes {
		return nil, fmt.Errorf("router: eager table for %d nodes is O(N²) = %d entries; above %d nodes use NewLazyTable",
			n, n*n, maxEagerTableNodes)
	}
	tb := &Table{nodes: n, next: make([]int16, n*n)}
	for i := range tb.next {
		tb.next[i] = -1
	}

	// Reverse adjacency: for each node u, the directed alive links (v, port)
	// with v --port--> u. Shared across the per-destination searches.
	type inEdge struct {
		from int
		port int16
	}
	rev := make([][]inEdge, n)
	deg := t.Degree()
	for v := 0; v < n; v++ {
		for port := 0; port < deg; port++ {
			u := t.Neighbor(v, port)
			if u < 0 {
				continue
			}
			if alive != nil && !alive(v, port) {
				continue
			}
			rev[u] = append(rev[u], inEdge{from: v, port: int16(port)})
		}
	}

	// One backwards BFS per destination: dist strictly decreases along every
	// table path, so routes are loop-free and minimal over the live graph.
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for dest := 0; dest < n; dest++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dest] = 0
		queue = append(queue[:0], int32(dest))
		row := tb.next[dest*n : (dest+1)*n]
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			for _, e := range rev[u] {
				if dist[e.from] >= 0 {
					// Already settled at an equal or shorter distance; keep
					// the first (lowest-port via the tie-break below) choice.
					if dist[e.from] == dist[u]+1 && e.port < row[e.from] {
						row[e.from] = e.port
					}
					continue
				}
				dist[e.from] = dist[u] + 1
				row[e.from] = e.port
				queue = append(queue, int32(e.from))
			}
		}
	}
	return tb, nil
}
