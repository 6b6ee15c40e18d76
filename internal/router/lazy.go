package router

import (
	"mermaid/internal/topology"
)

// LazyTable is the scalable fault-aware routing backend. While the fault
// subsystem is attached, routers consult a next-hop table instead of the
// topology's static routing function so traffic flows around dead links;
// but an eager table is O(N²) memory, which is exactly what million-node
// machine models cannot afford. LazyTable therefore computes one
// per-destination row at a time, on first query, with the same backwards
// BFS and the same lowest-port tie-break as BuildTable — so every row it
// produces is identical to the corresponding eager row — and drops all rows
// on Invalidate when the live graph changes. Runs that never query a
// destination never pay for its row, and fault-free runs (no injector, no
// table) pay nothing at all.
type LazyTable struct {
	topo  topology.Topology
	alive func(node, port int) bool
	rows  [][]int16 // per destination, nil until first query
	// BFS scratch, reused across row builds.
	dist  []int32
	queue []int32
}

// NewLazyTable creates the backend over the links for which alive(node,
// port) is true; nil means every connected port is alive. No routing work
// happens until the first Port query.
func NewLazyTable(t topology.Topology, alive func(node, port int) bool) *LazyTable {
	return &LazyTable{topo: t, alive: alive, rows: make([][]int16, t.Nodes())}
}

// Invalidate drops every computed row; subsequent queries recompute against
// the current live graph. Called on every topology-change event.
func (lt *LazyTable) Invalidate() {
	for i := range lt.rows {
		lt.rows[i] = nil
	}
}

// Port returns the output port at `at` towards `to`, or -1 when `to` is
// currently unreachable. at == to returns -1 (local delivery never routes).
func (lt *LazyTable) Port(at, to int) int {
	row := lt.rows[to]
	if row == nil {
		row = lt.build(to)
	}
	return int(row[at])
}

// build runs one backwards BFS from dest over the alive links, exactly the
// per-destination search of BuildTable: dist strictly decreases along every
// table path and ties between equally short paths resolve to the lowest
// port, so rebuilds of the same live graph are deterministic. Cost is
// O(N·deg²) per row — the in-edges of a node are found by scanning its
// neighbours' ports — which is negligible for the constant-degree families
// and still far below the eager table's O(N²) footprint elsewhere.
func (lt *LazyTable) build(dest int) []int16 {
	t := lt.topo
	n := t.Nodes()
	row := make([]int16, n)
	for i := range row {
		row[i] = -1
	}
	if lt.dist == nil {
		lt.dist = make([]int32, n)
		lt.queue = make([]int32, 0, n)
	}
	dist := lt.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[dest] = 0
	queue := append(lt.queue[:0], int32(dest))
	deg := t.Degree()
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		du := dist[u]
		for q := 0; q < deg; q++ {
			v := t.Neighbor(u, q)
			if v < 0 {
				continue
			}
			// v's ports back to u (there can be several — a two-node
			// ring) are candidate next hops for v.
			for p := 0; p < deg; p++ {
				if t.Neighbor(v, p) != u {
					continue
				}
				if lt.alive != nil && !lt.alive(v, p) {
					continue
				}
				if dist[v] < 0 {
					dist[v] = du + 1
					row[v] = int16(p)
					queue = append(queue, int32(v))
				} else if dist[v] == du+1 && int16(p) < row[v] {
					row[v] = int16(p)
				}
			}
		}
	}
	lt.queue = queue[:0]
	lt.rows[dest] = row
	return row
}
