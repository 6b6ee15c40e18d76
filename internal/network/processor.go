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
//
// A Processor runs without a process, on whichever fabric carries its
// interface: it is a state machine over NodeIf's non-blocking halves, and
// every wait — a compute burst, an overhead, blocking for a message or a
// rendezvous ack — is one event of its single bound continuation, scheduled
// where a process would have held or been woken. A parked receive or send is
// resumed by the interface with the one zero-delay event pearl.Future.Complete
// would issue for a parked process.
type Processor struct {
	NodeIf // also keeps the processor's compute accounting
	cur    *trace.Cursor

	ev         trace.Event // the operation in flight
	phase      uint8       // where the continuation resumes
	done       bool
	err        error
	opStart    pearl.Time // when the operation in flight began
	blockStart pearl.Time // when the current hold or park began
}

// Processor phases: where the state machine resumes when its continuation
// fires. prRun re-enters the fetch-execute loop directly.
const (
	prRun         uint8 = iota
	prComputeDone       // a compute burst elapsed
	prSendBody          // send overhead elapsed; inject the message
	prSendAcked         // rendezvous ack arrived; finish the sync send
	prRecvBody          // recv overhead elapsed; match or park
	prRecvGot           // the receive the processor is parked on matched
	prARecvBody         // recv overhead elapsed; post the async receive
)

// waitReason is the block reason a process would have reported to the kernel
// tracer on resuming in each phase.
var waitReason = [...]string{
	prComputeDone: "hold",
	prSendBody:    "hold",
	prSendAcked:   "await",
	prRecvBody:    "hold",
	prRecvGot:     "await",
	prARecvBody:   "hold",
}

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
	}
	pr.cur = trace.NewCursor(src)
	pr.phase = prRun
	pr.resume = pr.step
	pr.led.k.After(0, pr.resume)
}

// step resumes the state machine when its continuation fires: it finishes
// the phase the processor was suspended in, then re-enters the fetch-execute
// loop.
func (pr *Processor) step() {
	now := pr.led.k.Now()
	col := pr.led.col
	if col != nil && pr.phase != prRun && now > pr.blockStart {
		col.ProcessSpan(nil, pr.blockStart, now, waitReason[pr.phase])
	}
	switch pr.phase {
	case prComputeDone:
		col.Compute(pr.id, pr.opStart, now)
	case prSendBody:
		if !pr.sendBody() {
			return // parked awaiting the rendezvous ack
		}
	case prSendAcked:
		pr.sendBlock += now - pr.blockStart
		o := &pr.ev.Op
		pr.complete(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	case prRecvBody:
		if !pr.recvBody() {
			return // parked awaiting a matching arrival
		}
	case prRecvGot:
		m := pr.parked.Value().(*Message)
		pr.parked = nil
		pr.recvBlock += now - pr.blockStart
		pr.completeRecv(m)
	case prARecvBody:
		pr.arecvBody()
	}
	pr.phase = prRun
	pr.run()
}

// run fetches operations until the trace ends, an error surfaces, or an
// operation suspends the processor.
func (pr *Processor) run() {
	for {
		ev, err := pr.cur.Next()
		if err == io.EOF {
			pr.done = true
			return
		}
		if err != nil {
			pr.fail(err)
			return
		}
		pr.ev = ev
		pr.opStart = pr.led.k.Now()
		if !pr.exec() {
			return
		}
	}
}

func (pr *Processor) fail(err error) {
	pr.done = true
	pr.err = err
}

// exec starts the operation in flight, and reports whether it completed
// in place (true: keep fetching).
func (pr *Processor) exec() bool {
	o := &pr.ev.Op
	switch o.Kind {
	case ops.Compute:
		pr.compute += pearl.Time(o.Dur)
		pr.tasks.Inc()
		if o.Dur > 0 {
			return pr.suspend(prComputeDone, pearl.Time(o.Dur))
		}
		return true
	case ops.Send, ops.ASend:
		// A task-level node has one CPU and runs the rank of its own number.
		hold, err := pr.beginSend(int(o.Peer))
		if err != nil {
			pr.fail(fmt.Errorf("node %d cpu 0 (rank %d): %w", pr.id, pr.id, err))
			return false
		}
		if hold > 0 {
			return pr.suspend(prSendBody, hold)
		}
		return pr.sendBody()
	case ops.Recv:
		if hold := pr.beginRecv(); hold > 0 {
			return pr.suspend(prRecvBody, hold)
		}
		return pr.recvBody()
	case ops.ARecv:
		if hold := pr.beginRecv(); hold > 0 {
			return pr.suspend(prARecvBody, hold)
		}
		pr.arecvBody()
		return true
	case ops.WaitRecv:
		f := pr.startWait(o.Addr)
		if f.Done() {
			pr.completeRecv(f.Value().(*Message))
			return true
		}
		return pr.park(prRecvGot, f)
	default:
		pr.fail(fmt.Errorf("network: task-level trace for node %d contains %s; "+
			"instruction-level operations need the computational model", pr.id, o.Kind))
		return false
	}
}

// suspend resumes the processor in phase after d cycles — a hold.
func (pr *Processor) suspend(phase uint8, d pearl.Time) bool {
	pr.phase = phase
	pr.blockStart = pr.led.k.Now()
	pr.led.k.After(d, pr.resume)
	return false
}

// park blocks the processor in phase until its interface resumes it: on the
// rendezvous ack of a synchronous send (f nil), or on f's completion.
func (pr *Processor) park(phase uint8, f *pearl.Future) bool {
	pr.parked = f
	pr.blockStart = pr.led.k.Now()
	pr.phase = phase
	return false
}

// sendBody runs NodeIf.Send past its overhead. A synchronous send parks the
// processor until the rendezvous ack arrives (false); an asynchronous send
// completes in place (true).
func (pr *Processor) sendBody() bool {
	o := &pr.ev.Op
	pr.startSend(int(o.Peer), o.Size, o.Tag, pr.ev.Payload, o.Kind == ops.Send)
	if o.Kind == ops.Send {
		return pr.park(prSendAcked, nil)
	}
	pr.complete(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	return true
}

// recvBody runs NodeIf.Recv past its overhead.
func (pr *Processor) recvBody() bool {
	o := &pr.ev.Op
	m, f := pr.startRecv(o.Peer, o.Tag)
	if f != nil {
		return pr.park(prRecvGot, f)
	}
	pr.completeRecv(m)
	return true
}

// arecvBody runs NodeIf.PostRecv past its overhead; it never blocks.
func (pr *Processor) arecvBody() {
	o := &pr.ev.Op
	pr.postRecv(o.Peer, o.Tag, o.Addr)
	pr.complete(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
}

// completeRecv completes a receive or wait with the message it matched.
func (pr *Processor) completeRecv(m *Message) {
	pr.complete(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
}

// complete ends the communication operation in flight: the trace feedback,
// then, when observed, its collector span.
func (pr *Processor) complete(fb trace.Feedback) {
	if pr.ev.Resume != nil {
		pr.ev.Resume(fb)
	}
	col := pr.led.col
	if col == nil {
		return
	}
	now := pr.led.k.Now()
	switch o := &pr.ev.Op; o.Kind {
	case ops.Send, ops.ASend:
		col.Send(pr.id, o.Peer, o.Kind.String(), pr.opStart, now)
	case ops.Recv:
		col.Recv(pr.id, fb.Peer, "recv", pr.opStart, now)
	case ops.WaitRecv:
		col.Recv(pr.id, fb.Peer, "waitrecv", pr.opStart, now)
	}
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

// Done reports whether the processor finished its trace (or stopped on an
// error).
func (pr *Processor) Done() bool { return pr.done }

// Blocked describes the processor for a deadlock report, or returns "" when
// it is done. At a deadlock nothing is pending, so a processor not done is
// parked on a receive or a rendezvous ack.
func (pr *Processor) Blocked() string {
	if pr.done {
		return ""
	}
	return fmt.Sprintf("proc%d (await)", pr.id)
}

// Stats reports the processor's counters.
func (pr *Processor) Stats() *stats.Set { return pr.procStats(pr.id) }
