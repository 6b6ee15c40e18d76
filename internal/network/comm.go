package network

import (
	"fmt"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/trace"
)

// Comm is one communication operation of Table 1 in flight — send, asend,
// recv, arecv or waitrecv — as a resumable call over a NodeIf's non-blocking
// halves. It is the one place that says what the operations cost in time: the
// overhead charged before each, the rendezvous ack a synchronous send awaits,
// the arrival a receive awaits. Its owner — a task-level Processor, a detailed
// node's CPU runner, a DSM page fault or server — calls Begin, then Step from
// its pearl.Chain's step function until Step reports Done, the chain serving
// each wait Step returns in between; then Finish or Message. A Comm is reused
// from one operation to the next and owns the Futures a send and a receive
// await; it allocates nothing but the Future of an arecv handle, since
// several can be outstanding at once.
type Comm struct {
	ni      *NodeIf
	op      ops.Op
	payload any
	pc      uint8
	hold    pearl.Time    // overhead still to charge
	fut     *pearl.Future // what a receive or wait awaits, or the handle an arecv posts
	ack     pearl.Future  // what a synchronous send awaits
	recv    pearl.Future  // what a receive that finds no arrival awaits
	msg     *Message      // what a receive or wait matched
	since   pearl.Time    // when the await began
}

// Comm program counters: where Step continues once the wait it returned has
// been served.
const (
	cmDone  uint8 = iota
	cmSend        // inject the message
	cmAcked       // the rendezvous ack has arrived
	cmRecv        // take the oldest matching arrival, or await one
	cmGot         // the awaited arrival has matched
	cmARecv       // post the receive
	cmWait        // retire the handle, awaiting its arrival if need be
)

// Begin starts the communication operation o on ni; a send carries payload.
// A send, receive or arecv is counted now, and its overhead is the first wait
// Step returns; an arecv registers its handle and a waitrecv retires its
// own. A send to a destination outside the network, an arecv reusing a
// handle still posted and a waitrecv of a handle no arecv posted are errors,
// and nothing is counted; the caller names the issuer: node, CPU and rank.
func (c *Comm) Begin(ni *NodeIf, o ops.Op, payload any) error {
	c.ni, c.op, c.payload, c.hold, c.msg, c.fut = ni, o, payload, 0, nil, nil
	var err error
	switch o.Kind {
	case ops.Send, ops.ASend:
		if n := ni.led.Nodes(); o.Peer < 0 || int(o.Peer) >= n {
			return fmt.Errorf("send to invalid destination %d (the network has %d nodes)", o.Peer, n)
		}
		ni.sends.Inc()
		c.pc, c.hold = cmSend, ni.led.cfg.SendOverhead
	case ops.Recv:
		ni.recvs.Inc()
		c.pc, c.hold = cmRecv, ni.led.cfg.RecvOverhead
	case ops.ARecv:
		if c.fut, err = ni.reserveHandle(o.Addr); err != nil {
			return err
		}
		ni.recvs.Inc()
		c.pc, c.hold = cmARecv, ni.led.cfg.RecvOverhead
	case ops.WaitRecv:
		if c.fut, err = ni.takeHandle(o.Addr); err != nil {
			return err
		}
		c.pc = cmWait
	default:
		panic(fmt.Sprintf("network: %s is not a communication operation", o.Kind))
	}
	return nil
}

// Step continues the operation: it returns the wait the operation needs next,
// or Done once it is complete.
func (c *Comm) Step() pearl.Step {
	if c.hold > 0 {
		h := c.hold
		c.hold = 0
		return pearl.Step{Hold: h}
	}
	ni, o := c.ni, &c.op
	now := ni.led.k.Now()
	switch c.pc {
	case cmSend:
		if o.Kind == ops.ASend {
			ni.startSend(int(o.Peer), o.Size, o.Tag, c.payload, nil)
			break
		}
		c.ack = pearl.Future{}
		ni.startSend(int(o.Peer), o.Size, o.Tag, c.payload, &c.ack)
		c.pc, c.since = cmAcked, now
		return pearl.Step{Await: &c.ack}
	case cmAcked:
		ni.sendBlock += now - c.since
	case cmRecv:
		c.recv = pearl.Future{}
		if c.msg = ni.startRecv(o.Peer, o.Tag, &c.recv); c.msg == nil {
			c.pc, c.since, c.fut = cmGot, now, &c.recv
			return pearl.Step{Await: c.fut}
		}
	case cmGot:
		c.msg, c.fut = c.fut.Value().(*Message), nil
		ni.recvBlock += now - c.since
	case cmARecv:
		ni.postRecv(o.Peer, o.Tag, c.fut)
		c.fut = nil
	case cmWait:
		if !c.fut.Done() {
			c.pc, c.since = cmGot, now
			return pearl.Step{Await: c.fut}
		}
		c.msg, c.fut = c.fut.Value().(*Message), nil
	}
	c.pc = cmDone
	return pearl.Step{Done: true}
}

// Message returns the message a completed receive or wait matched.
func (c *Comm) Message() *Message { return c.msg }

// Finish completes the operation for the trace that issued it: the feedback
// goes to resume (when not nil) and, with the bottleneck collector attached,
// the operation from start to now becomes a span of processor cpu.
func (c *Comm) Finish(resume func(trace.Feedback), cpu int, start pearl.Time) {
	o := &c.op
	fb := trace.Feedback{Peer: o.Peer, Tag: o.Tag}
	if m := c.msg; m != nil {
		fb = trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload}
	}
	if resume != nil {
		resume(fb)
	}
	col := c.ni.led.col
	if col == nil {
		return
	}
	now := c.ni.led.k.Now()
	switch o.Kind {
	case ops.Send, ops.ASend:
		col.Send(cpu, o.Peer, o.Kind, start, now)
	case ops.Recv, ops.WaitRecv:
		col.Recv(cpu, fb.Peer, o.Kind, start, now)
	}
}
