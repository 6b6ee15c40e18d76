package workload

import (
	"fmt"

	"mermaid/internal/annotate"
	"mermaid/internal/ops"
)

// comm is a small collective-communication library for instrumented SPMD
// programs: broadcast, reduce and allreduce built from the point-to-point
// operations of Table 1 along binomial trees. All ranks must call each
// collective in the same order — the usual SPMD contract — because tags are
// assigned from a per-communicator sequence, which starts at a tag region
// the caller reserves (below the DSM-reserved space).
//
// Payloads are real Go values routed through the simulator, so algorithmic
// correctness (e.g. an allreduce really producing the global sum) is
// testable end to end.
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
