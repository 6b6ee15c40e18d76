package network

import (
	"fmt"
	"io"

	"mermaid/internal/analysis"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// Processor is the abstract processor of the multi-node model: it reads an
// incoming (task-level) operation trace, models the compute operations at
// the task level and dispatches communication requests to the router —
// exactly the component of Fig. 3b. This is the fast-prototyping abstraction
// level: slowdown is dominated by communication, since computation is
// simulated as single compute(duration) events.
type Processor struct {
	ni  *NodeIf
	src *trace.Cursor

	computeCycles pearl.Time
	commCycles    pearl.Time
	taskCount     stats.Counter
	err           error
	done          bool

	// Bottleneck-analysis feed (nil collector when the analyzer is off).
	col *analysis.Collector
	cpu int
}

// NewProcessor creates an abstract processor on node interface ni consuming
// the given trace source. The source is drained through a batched cursor:
// one pull per batch rather than per operation.
func NewProcessor(ni *NodeIf, src trace.Source) *Processor {
	return &Processor{ni: ni, src: trace.NewCursor(src)}
}

// Observe attaches the bottleneck-analysis collector, with the processor's
// machine-wide CPU index. Call before the simulation runs; a nil collector
// leaves the processor unobserved.
func (pr *Processor) Observe(col *analysis.Collector, cpu int) {
	pr.col = col
	pr.cpu = cpu
}

// CommCycles returns the total simulated time spent inside communication
// operations (overheads plus blocking).
func (pr *Processor) CommCycles() pearl.Time { return pr.commCycles }

// Spawn starts the processor as a simulation process on kernel k.
func (pr *Processor) Spawn(k *pearl.Kernel) *pearl.Process {
	return k.Spawn(fmt.Sprintf("proc%d", pr.ni.id), pr.Run)
}

// Run executes the processor loop in process p. It terminates at the end of
// the trace; Err reports any trace error afterwards.
func (pr *Processor) Run(p *pearl.Process) {
	defer func() { pr.done = true }()
	for {
		ev, err := pr.src.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			pr.err = err
			return
		}
		if err := pr.exec(p, ev); err != nil {
			pr.err = err
			return
		}
	}
}

func (pr *Processor) exec(p *pearl.Process, ev trace.Event) error {
	o := ev.Op
	resume := func(fb trace.Feedback) {
		if ev.Resume != nil {
			ev.Resume(fb)
		}
	}
	start := p.Now()
	switch o.Kind {
	case ops.Compute:
		pr.computeCycles += pearl.Time(o.Dur)
		pr.taskCount.Inc()
		if o.Dur > 0 {
			p.Hold(pearl.Time(o.Dur))
		}
		pr.col.Compute(pr.cpu, start, p.Now())
	case ops.Send, ops.ASend:
		// A task-level node has one CPU and runs the rank of its own number.
		if err := pr.ni.Send(p, int(o.Peer), o.Size, o.Tag, ev.Payload, o.Kind == ops.Send); err != nil {
			return fmt.Errorf("node %d cpu 0 (rank %d): %w", pr.ni.id, pr.ni.id, err)
		}
		resume(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
		pr.commCycles += p.Now() - start
		pr.col.Send(pr.cpu, o.Peer, o.Kind.String(), start, p.Now())
	case ops.Recv:
		m := pr.ni.Recv(p, o.Peer, o.Tag)
		resume(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		pr.commCycles += p.Now() - start
		pr.col.Recv(pr.cpu, int32(m.Src), "recv", start, p.Now())
	case ops.ARecv:
		pr.ni.PostRecv(p, o.Peer, o.Tag, o.Addr)
		resume(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
		pr.commCycles += p.Now() - start
	case ops.WaitRecv:
		m := pr.ni.WaitRecv(p, o.Addr)
		resume(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		pr.commCycles += p.Now() - start
		pr.col.Recv(pr.cpu, int32(m.Src), "waitrecv", start, p.Now())
	default:
		return fmt.Errorf("network: task-level trace for node %d contains %s; "+
			"instruction-level operations need the computational model", pr.ni.id, o.Kind)
	}
	return nil
}

// Err returns the first error the processor hit, if any.
func (pr *Processor) Err() error { return pr.err }

// Done reports whether the processor finished its trace.
func (pr *Processor) Done() bool { return pr.done }

// ComputeCycles returns the total simulated computation time.
func (pr *Processor) ComputeCycles() pearl.Time { return pr.computeCycles }

// Stats reports the processor's counters.
func (pr *Processor) Stats() *stats.Set {
	s := stats.NewSet(fmt.Sprintf("proc%d", pr.ni.id))
	s.PutUint("compute tasks", pr.taskCount.Value(), "")
	s.PutInt("compute cycles", int64(pr.computeCycles), "cyc")
	sub := pr.ni.Stats()
	s.Subsets = append(s.Subsets, sub)
	return s
}
