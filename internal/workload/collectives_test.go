package workload

import (
	"fmt"
	"testing"

	"mermaid/internal/annotate"
	"mermaid/internal/machine"
	"mermaid/internal/network"
	"mermaid/internal/router"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// collectiveMachine builds a detailed ring machine of n T805-ish nodes (any
// n, unlike the mesh presets).
func collectiveMachine(t *testing.T, n int) *machine.Machine {
	t.Helper()
	cfg := machine.T805Grid(2, 1) // borrow node config
	cfg.Nodes = n
	cfg.Network.Topology = topology.Config{Kind: topology.Ring, Nodes: n}
	cfg.Network.Router.Switching = router.StoreAndForward
	cfg.Network.Link = network.LinkConfig{BytesPerCycle: 2, PropDelay: 1}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runCollective executes body on n ranks and fails on any simulation error.
func runCollective(t *testing.T, n int, body func(c *comm, rank int)) {
	t.Helper()
	m := collectiveMachine(t, n)
	prog := &trace.Program{
		Threads: n,
		Body: func(th *trace.Thread) {
			u := annotate.New(th, annotate.GenericTarget())
			u.Enter("main")
			defer u.Leave()
			body(&comm{u: u, rank: th.ID(), size: th.Threads(), seq: 500}, th.ID())
		},
	}
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		for root := 0; root < n; root += n/2 + 1 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				got := make([]any, n)
				runCollective(t, n, func(c *comm, rank int) {
					var payload any
					if rank == root {
						payload = "the word"
					}
					got[rank] = c.Broadcast(root, 64, payload)
				})
				for r, v := range got {
					if v != "the word" {
						t.Fatalf("rank %d got %v", r, v)
					}
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var rootGot float64
			runCollective(t, n, func(c *comm, rank int) {
				v := c.Reduce(0, 8, float64(rank+1), func(a, b float64) float64 { return a + b })
				if rank == 0 {
					rootGot = v
				}
			})
			want := float64(n*(n+1)) / 2
			if rootGot != want {
				t.Fatalf("reduce = %v, want %v", rootGot, want)
			}
		})
	}
}

func TestAllReduceEveryRank(t *testing.T) {
	const n = 6
	got := make([]float64, n)
	runCollective(t, n, func(c *comm, rank int) {
		got[rank] = c.AllReduce(8, float64(rank), func(a, b float64) float64 { return a + b })
	})
	want := float64(n*(n-1)) / 2
	for r, v := range got {
		if v != want {
			t.Fatalf("rank %d allreduce = %v, want %v", r, v, want)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	const n = 4
	got := make([]float64, n)
	runCollective(t, n, func(c *comm, rank int) {
		got[rank] = c.AllReduce(8, float64((rank*7)%5), func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
	})
	for r, v := range got {
		if v != 4 { // max of {0,2,4,1}
			t.Fatalf("rank %d max = %v, want 4", r, v)
		}
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Distinct tags per call: mixing collectives must not cross-match.
	const n = 4
	runCollective(t, n, func(c *comm, rank int) {
		c.AllReduce(4, 0, func(a, b float64) float64 { return a + b })
		v := c.AllReduce(8, 1, func(a, b float64) float64 { return a + b })
		if v != n {
			t.Errorf("allreduce = %v", v)
		}
		got := c.Broadcast(1, 32, map[bool]any{true: "x", false: nil}[rank == 1])
		if got != "x" {
			t.Errorf("broadcast = %v", got)
		}
		c.Reduce(2, 4, 0, func(a, b float64) float64 { return a + b })
	})
}
