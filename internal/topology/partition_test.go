package topology

import (
	"fmt"
	"testing"
)

func TestPartitionBalancedContiguous(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{8, 1}, {8, 2}, {8, 3}, {8, 4}, {8, 8}, {8, 16}, {7, 2}, {1, 4}, {64, 4},
	} {
		part := Partition(tc.n, tc.shards)
		if len(part) != tc.n {
			t.Fatalf("Partition(%d,%d): %d entries", tc.n, tc.shards, len(part))
		}
		want := tc.shards
		if want > tc.n {
			want = tc.n
		}
		if want < 1 {
			want = 1
		}
		if got := Shards(part); got != want {
			t.Errorf("Partition(%d,%d): %d shards, want %d (%v)", tc.n, tc.shards, got, want, part)
		}
		sizes := make([]int, Shards(part))
		for i, s := range part {
			if i > 0 && (s < part[i-1] || s > part[i-1]+1) {
				t.Fatalf("Partition(%d,%d) not contiguous: %v", tc.n, tc.shards, part)
			}
			sizes[s]++
		}
		min, max := tc.n, 0
		for _, sz := range sizes {
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		if max-min > 1 {
			t.Errorf("Partition(%d,%d) unbalanced: sizes %v", tc.n, tc.shards, sizes)
		}
	}
}

func TestCrossLinksMeshSlabs(t *testing.T) {
	// 4x4 mesh, row-major ids: 2 shards cut it into two 4x2 bands with 4
	// physical links crossing, i.e. 8 directed links.
	topo, err := New(Config{Kind: Mesh2D, DimX: 4, DimY: 4})
	if err != nil {
		t.Fatal(err)
	}
	part := Partition(16, 2)
	if got := crossLinks(topo, part); got != 8 {
		t.Fatalf("crossLinks = %d, want 8 (partition %v)", got, part)
	}
	// Sanity: every node's shard matches its row band.
	for i := 0; i < 16; i++ {
		want := 0
		if i >= 8 {
			want = 1
		}
		if part[i] != want {
			t.Fatalf("node %d in shard %d, want %d (%v)", i, part[i], want, fmt.Sprint(part))
		}
	}
}

// crossLinks counts the directed links of t whose endpoints land in
// different shards of part — the channels that become cross-shard mailbox
// traffic.
func crossLinks(t Topology, part []int) int {
	cut := 0
	deg := t.Degree()
	for node := 0; node < t.Nodes(); node++ {
		for port := 0; port < deg; port++ {
			if nb := t.Neighbor(node, port); nb >= 0 && part[node] != part[nb] {
				cut++
			}
		}
	}
	return cut
}
