package network

import (
	"fmt"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// NodeIf is one node's network interface: the API through which both the
// abstract processor (task-level mode) and the single-node computational
// model (detailed mode) perform message passing, on every engine. Matching
// follows MPI-like semantics: a receive names a source (or ops.AnyPeer) and a
// tag; arrivals match the oldest compatible posted receive, and receives match
// the oldest compatible arrival — "oldest" in simulated time, which is what
// makes the generated multiprocessor traces valid.
//
// Each operation has a non-blocking half (startSend, startRecv, postRecv,
// startWait) that completes in place or returns the Future to wait on, and a
// blocking wrapper that parks a process on that Future — how a detailed
// node's CPU communicates. A task-level node's Processor calls the halves
// directly: it has no process, so the interface resumes its continuation
// instead — one zero-delay event, the one wake pearl.Future.Complete issues
// for a parked process.
type NodeIf struct {
	nodeAcct
	led *Traffic // the ledger this node's traffic is counted in, and its kernel and transport
	id  int

	// msgSeq numbers the messages this interface injects; the sharded
	// transport uses (node, msgSeq) as a message's deterministic identity.
	msgSeq uint64

	arrived []*Message
	waiters []recvWait
	handles map[uint64]*pearl.Future // lazily allocated; most nodes never arecv

	// Set on a node driven by its Processor, which waits without a process:
	// resume is the processor's continuation, and parked the receive it waits
	// on. A synchronous send from such a node carries no Future; its ack
	// resumes the node.
	resume func()
	parked *pearl.Future
}

// transport is the fabric behind a NodeIf: the single-kernel or the sharded
// engine. Everything but injection — configuration, matching, overheads,
// rendezvous acks — is shared verbatim between the engines.
type transport interface {
	inject(m *Message)
}

type recvWait struct {
	src int32
	tag uint32
	fut *pearl.Future
}

func matches(src int32, tag uint32, m *Message) bool {
	return (src == ops.AnyPeer || int(src) == m.Src) && tag == m.Tag
}

// takeArrived removes and returns the oldest message in q matching
// (src, tag), or nil.
func takeArrived(q *[]*Message, src int32, tag uint32) *Message {
	for i, m := range *q {
		if matches(src, tag, m) {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return m
		}
	}
	return nil
}

// ID returns the node id.
func (ni *NodeIf) ID() int { return ni.id }

// Send transmits size bytes to dst. When sync is true the call blocks (in
// simulated time) until the destination has accepted the message —
// synchronous send(message-size, destination) of Table 1; otherwise it
// returns after the send overhead — asend. A destination outside the network
// is an error, and nothing is sent.
func (ni *NodeIf) Send(p *pearl.Process, dst int, size uint32, tag uint32, payload any, sync bool) error {
	hold, err := ni.beginSend(dst)
	if err != nil {
		return err
	}
	if hold > 0 {
		p.Hold(hold)
	}
	if ack := ni.startSend(dst, size, tag, payload, sync); ack != nil {
		start := p.Now()
		p.Await(ack)
		ni.sendBlock += p.Now() - start
	}
	return nil
}

// Recv blocks until a message matching (src, tag) has arrived, returning it.
// src may be ops.AnyPeer; the message that arrived first in simulated time
// wins — the feedback the execution-driven trace generation relies on.
func (ni *NodeIf) Recv(p *pearl.Process, src int32, tag uint32) *Message {
	if hold := ni.beginRecv(); hold > 0 {
		p.Hold(hold)
	}
	m, f := ni.startRecv(src, tag)
	if f != nil {
		start := p.Now()
		m = p.Await(f).(*Message)
		ni.recvBlock += p.Now() - start
	}
	return m
}

// PostRecv posts an asynchronous receive (arecv) under the given handle and
// returns immediately; complete it with WaitRecv.
func (ni *NodeIf) PostRecv(p *pearl.Process, src int32, tag uint32, handle uint64) {
	if hold := ni.beginRecv(); hold > 0 {
		p.Hold(hold)
	}
	ni.postRecv(src, tag, handle)
}

// WaitRecv blocks until the arecv posted under handle has completed,
// returning its message.
func (ni *NodeIf) WaitRecv(p *pearl.Process, handle uint64) *Message {
	f := ni.startWait(handle)
	start := p.Now()
	m := p.Await(f).(*Message)
	ni.recvBlock += p.Now() - start
	return m
}

// beginSend counts a send to dst and returns the send overhead to charge
// before startSend. A destination outside the network is an error, and
// nothing is counted; the caller names the sender: node, CPU and rank.
func (ni *NodeIf) beginSend(dst int) (pearl.Time, error) {
	if n := ni.led.Nodes(); dst < 0 || dst >= n {
		return 0, fmt.Errorf("send to invalid destination %d (the network has %d nodes)", dst, n)
	}
	ni.sends.Inc()
	return ni.led.cfg.SendOverhead, nil
}

// beginRecv counts a receive or arecv and returns the receive overhead to
// charge before startRecv or postRecv.
func (ni *NodeIf) beginRecv() pearl.Time {
	ni.recvs.Inc()
	return ni.led.cfg.RecvOverhead
}

// startSend injects the message once the send overhead has elapsed. It
// returns the Future a synchronous send awaits its rendezvous ack on; nil for
// an asynchronous send, and from a Processor, which the ack resumes.
func (ni *NodeIf) startSend(dst int, size uint32, tag uint32, payload any, sync bool) *pearl.Future {
	msg := &Message{Src: ni.id, Dst: dst, Size: size, Tag: tag, Payload: payload, Sync: sync}
	if sync && ni.resume == nil {
		msg.ackFut = ni.led.k.NewFuture()
	}
	ni.led.tr.inject(msg)
	return msg.ackFut
}

// startRecv takes the oldest arrival matching (src, tag) once the receive
// overhead has elapsed, or, finding none, queues the receive and returns the
// Future the matching arrival will complete.
func (ni *NodeIf) startRecv(src int32, tag uint32) (*Message, *pearl.Future) {
	if m := takeArrived(&ni.arrived, src, tag); m != nil {
		ni.sendAck(m)
		return m, nil
	}
	f := ni.led.k.NewFuture()
	ni.waiters = append(ni.waiters, recvWait{src: src, tag: tag, fut: f})
	return nil, f
}

// postRecv registers an arecv under handle once the receive overhead has
// elapsed; it never blocks.
func (ni *NodeIf) postRecv(src int32, tag uint32, handle uint64) {
	if _, dup := ni.handles[handle]; dup {
		panic(fmt.Sprintf("network: node %d reusing arecv handle %d", ni.id, handle))
	}
	m, f := ni.startRecv(src, tag)
	if f == nil {
		f = ni.led.k.NewFuture()
		f.Complete(m)
	}
	if ni.handles == nil {
		ni.handles = make(map[uint64]*pearl.Future)
	}
	ni.handles[handle] = f
}

// startWait retires handle and returns the Future its arecv completes —
// already done if the message has arrived.
func (ni *NodeIf) startWait(handle uint64) *pearl.Future {
	f, ok := ni.handles[handle]
	if !ok {
		panic(fmt.Sprintf("network: node %d waiting on unknown arecv handle %d", ni.id, handle))
	}
	delete(ni.handles, handle)
	return f
}

// sendAck issues the rendezvous acknowledgement completing a synchronous
// send, once this node has accepted m; the ack travels back through the
// network like any message.
func (ni *NodeIf) sendAck(m *Message) {
	if ack := ni.led.ackFor(m); ack != nil {
		ni.led.tr.inject(ack)
	}
}

// arrive is called by the transport when a message has fully arrived at this
// node: it matches the oldest compatible posted receive or queues the
// message. An ack wakes the sender awaiting it.
func (ni *NodeIf) arrive(m *Message) {
	if m.isAck {
		if m.ackFut != nil {
			m.ackFut.Complete(nil)
		} else {
			ni.led.k.After(0, ni.resume)
		}
		return
	}
	for i, w := range ni.waiters {
		if matches(w.src, w.tag, m) {
			ni.waiters = append(ni.waiters[:i], ni.waiters[i+1:]...)
			ni.sendAck(m)
			w.fut.Complete(m)
			if w.fut == ni.parked {
				ni.led.k.After(0, ni.resume)
			}
			return
		}
	}
	ni.arrived = append(ni.arrived, m)
}

// Stats reports the interface's counters.
func (ni *NodeIf) Stats() *stats.Set { return ni.ifStats(ni.id) }
