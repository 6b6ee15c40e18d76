package network

import (
	"fmt"
	"io"

	"mermaid/internal/analysis"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/trace"
)

// Processor is the abstract processor of the multi-node model: it reads an
// incoming (task-level) operation trace, models the compute operations at
// the task level and dispatches communication requests to the router —
// exactly the component of Fig. 3b. This is the fast-prototyping abstraction
// level: slowdown is dominated by communication, since computation is
// simulated as single compute(duration) events.
//
// A Processor is a pearl.Chain on whichever fabric carries its interface: a
// compute burst is a hold, and a communication operation is a Comm, the same
// resumable call a detailed node's CPU makes. With the bottleneck collector
// attached the chain reports its block spans ("hold", "await") to it.
type Processor struct {
	NodeIf // also keeps the processor's compute accounting
	cur    trace.Cursor
	chain  pearl.Chain
	comm   Comm

	resume  func(trace.Feedback) // the trace feedback of the operation in flight
	opStart pearl.Time           // when it began
	phase   uint8
	done    bool
	err     error
}

// Processor phases: what the operation in flight is doing.
const (
	prFetch   uint8 = iota // none: fetch the next one
	prCompute              // a compute burst is elapsing
	prComm                 // a communication operation is in progress
)

// Start installs the trace source, drained through a batched cursor, and
// schedules the processor's first fetch at the current time. With the
// bottleneck collector attached to its fabric the processor registers as CPU
// <node id> and reports its compute and communication spans. Start the
// processors of a machine in ascending node order.
func (pr *Processor) Start(src trace.Source) {
	if col := pr.led.col; col != nil {
		col.RegisterCPU(pr.id, fmt.Sprintf("proc%d", pr.id), func() analysis.CPUSample {
			return analysis.CPUSample{Compute: pr.compute, CommBlocked: pr.commCycles()}
		})
		pr.chain.Spans = col.BlockSpan
	}
	pr.cur = *trace.NewCursor(src)
	pr.chain.Init(pr.led.k, pr.step)
	pr.chain.Start()
}

// step is the processor's step function: it finishes the operation in
// flight, then fetches operations until the trace ends, an error surfaces,
// or an operation has to wait.
func (pr *Processor) step() pearl.Step {
	for {
		switch pr.phase {
		case prCompute:
			pr.led.col.Compute(pr.id, pr.opStart, pr.led.k.Now())
		case prComm:
			if s := pr.comm.Step(); !s.Done {
				return s
			}
			pr.comm.Finish(pr.resume, pr.id, pr.opStart)
		}
		pr.phase = prFetch
		// A compute operation is read in place; a communication operation
		// is copied out with the plumbing of a global event.
		o, err := pr.cur.Peek()
		if err == io.EOF {
			// Drop the cursor, and with it the trace and its batch buffer:
			// they are garbage before the run builds its report.
			pr.cur = trace.Cursor{}
			pr.done = true
			return pearl.Step{Done: true}
		}
		if err != nil {
			return pr.fail(err)
		}
		pr.opStart = pr.led.k.Now()
		switch {
		case o.Kind == ops.Compute:
			pr.cur.Advance()
			pr.compute += pearl.Time(o.Dur)
			pr.tasks.Inc()
			if o.Dur > 0 {
				pr.phase = prCompute
				return pearl.Step{Hold: pearl.Time(o.Dur)}
			}
		case o.Kind.IsCommunication():
			ev, _ := pr.cur.Next()
			pr.resume = ev.Resume
			// A task-level node has one CPU and runs the rank of its own number.
			if err := pr.comm.Begin(&pr.NodeIf, ev.Op, ev.Payload); err != nil {
				return pr.fail(fmt.Errorf("node %d cpu 0 (rank %d): %w", pr.id, pr.id, err))
			}
			pr.phase = prComm
		default:
			return pr.fail(fmt.Errorf("network: task-level trace for node %d contains %s; "+
				"instruction-level operations need the computational model", pr.id, o.Kind))
		}
	}
}

// fail stops the processor on err.
func (pr *Processor) fail(err error) pearl.Step {
	pr.done = true
	pr.err = err
	return pearl.Step{Done: true}
}

// commCycles is the simulated time spent inside communication operations:
// every send and receive (or arecv) charged its overhead, and the rest is
// blocking for a rendezvous ack or a message, which the interface accounts.
func (pr *Processor) commCycles() pearl.Time {
	c := &pr.led.cfg
	return pearl.Time(pr.sends.Value())*c.SendOverhead + pearl.Time(pr.recvs.Value())*c.RecvOverhead +
		pr.sendBlock + pr.recvBlock
}

// Err returns the error the processor stopped on, if any.
func (pr *Processor) Err() error { return pr.err }

// Blocked describes the processor for a deadlock report — what its chain
// waits for — or returns "" when it is done.
func (pr *Processor) Blocked() string {
	if pr.done {
		return ""
	}
	return fmt.Sprintf("proc%d (%s)", pr.id, pr.chain.Reason())
}
