package topology

// Partition assigns the nodes of an n-node machine to the given number of
// shards for parallel simulation, returning a node→shard map. Nodes are cut
// into contiguous, balanced id ranges (sizes differ by at most one). All
// regular topologies here number nodes in row-major / dimension order, so a
// contiguous id range is a spatial slab: a run of a ring's arc, a band of
// rows of a mesh or torus, a subcube of a hypercube — the cuts that
// minimise the inter-shard link count and therefore the synchronisation
// traffic. A shard count above n is clamped to n; below 1, to 1.
func Partition(n, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	part := make([]int, n)
	for i := range part {
		part[i] = i * shards / n
	}
	return part
}

// Shards returns the number of distinct shards in a Partition result: one
// more than its last (largest) entry.
func Shards(part []int) int {
	if len(part) == 0 {
		return 0
	}
	return part[len(part)-1] + 1
}
