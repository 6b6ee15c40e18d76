package workload

import (
	"fmt"
	"testing"

	"mermaid/internal/annotate"
	"mermaid/internal/machine"
	"mermaid/internal/network"
	"mermaid/internal/ops"
	"mermaid/internal/router"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// comm is the collectives' test workload: broadcast, reduce and allreduce
// built from the point-to-point operations of Table 1 along binomial trees.
// All ranks must call each collective in the same order — the usual SPMD
// contract — because tags are assigned from a per-communicator sequence,
// which starts at a tag region the caller reserves (below the DSM-reserved
// space).
//
// Payloads are real Go values routed through the simulator, so a message
// the machine loses, misroutes or matches to the wrong receive shows as a
// wrong value on some rank.
type comm struct {
	u    *annotate.Unit
	rank int
	size int
	seq  uint32
}

func (c *comm) nextTag() uint32 {
	c.seq++
	return c.seq
}

// rel converts the caller's rank into root-relative coordinates.
func (c *comm) rel(root int) int { return (c.rank - root + c.size) % c.size }

// abs converts a root-relative rank back to an absolute one.
func (c *comm) abs(root, r int) int { return (r + root) % c.size }

// Broadcast distributes the root's payload of the given wire size to every
// rank along a binomial tree (log2(p) rounds). It returns the payload on
// every rank.
func (c *comm) Broadcast(root int, bytes uint32, payload any) any {
	if root < 0 || root >= c.size {
		panic(fmt.Sprintf("workload: broadcast root %d of %d", root, c.size))
	}
	tag := c.nextTag()
	if c.size == 1 {
		return payload
	}
	r := c.rel(root)
	val := payload
	// Receive from the parent (non-root ranks); mask ends at the level the
	// rank joined the tree.
	mask := 1
	for mask < c.size {
		if r&mask != 0 {
			val = c.u.Recv(c.abs(root, r-mask), tag)
			break
		}
		mask <<= 1
	}
	// Forward to children at all lower levels.
	for m := mask >> 1; m > 0; m >>= 1 {
		if r+m < c.size {
			c.u.Send(c.abs(root, r+m), bytes, tag, val)
		}
	}
	return val
}

// Reduce combines every rank's val with op (a commutative, associative
// combiner) down a binomial tree; the result is returned at the root (other
// ranks receive their partial). Each combine step also charges one
// arithmetic operation, modelling the reduction computation.
func (c *comm) Reduce(root int, bytes uint32, val float64, op func(a, b float64) float64) float64 {
	tag := c.nextTag()
	r := c.rel(root)
	acc := val
	mask := 1
	for mask < c.size {
		if r&mask == 0 {
			if r+mask < c.size {
				in := c.u.Recv(c.abs(root, r+mask), tag).(float64)
				c.u.Arith(ops.Add, ops.TypeDouble)
				acc = op(acc, in)
			}
		} else {
			c.u.Send(c.abs(root, r-mask), bytes, tag, acc)
			break
		}
		mask <<= 1
	}
	return acc
}

// AllReduce gives every rank the combined value: a reduce to rank 0 followed
// by a broadcast.
func (c *comm) AllReduce(bytes uint32, val float64, op func(a, b float64) float64) float64 {
	total := c.Reduce(0, bytes, val, op)
	out := c.Broadcast(0, bytes, total)
	return out.(float64)
}

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
