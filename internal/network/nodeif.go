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
// Its operations are non-blocking halves (startSend, startRecv, postRecv,
// and reserveHandle and takeHandle for arecv handles) that complete in place
// or complete a Future the caller awaits; Comm counts and times the
// operations and drives the halves for every caller, whose pearl.Chain
// waits. Nothing here blocks, and nothing depends on who calls.
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

// startSend injects the message once the send overhead has elapsed — send
// (message-size, destination) of Table 1. A synchronous send names the Future
// its rendezvous ack completes once the destination has accepted the message;
// an asynchronous one (asend) passes nil.
func (ni *NodeIf) startSend(dst int, size uint32, tag uint32, payload any, ack *pearl.Future) {
	ni.led.tr.inject(&Message{Src: ni.id, Dst: dst, Size: size, Tag: tag, Payload: payload, Sync: ack != nil, ackFut: ack})
}

// startRecv takes the oldest arrival matching (src, tag) once the receive
// overhead has elapsed, or, finding none, queues the receive and returns nil:
// the matching arrival will complete fut, which the caller owns. src may be
// ops.AnyPeer; the message that arrived first in simulated time wins — the
// feedback the execution-driven trace generation relies on.
func (ni *NodeIf) startRecv(src int32, tag uint32, fut *pearl.Future) *Message {
	if m := takeArrived(&ni.arrived, src, tag); m != nil {
		ni.sendAck(m)
		return m
	}
	ni.waiters = append(ni.waiters, recvWait{src: src, tag: tag, fut: fut})
	return nil
}

// reserveHandle registers a new arecv handle and returns the Future its
// message will complete, or an error when the handle is already posted and
// not yet waited for.
func (ni *NodeIf) reserveHandle(handle uint64) (*pearl.Future, error) {
	if _, dup := ni.handles[handle]; dup {
		return nil, fmt.Errorf("arecv reuses handle %d, which is posted and not yet waited for", handle)
	}
	if ni.handles == nil {
		ni.handles = make(map[uint64]*pearl.Future)
	}
	f := ni.led.k.NewFuture()
	ni.handles[handle] = f
	return f, nil
}

// postRecv posts the arecv whose handle completes f once the receive
// overhead has elapsed; it never blocks.
func (ni *NodeIf) postRecv(src int32, tag uint32, f *pearl.Future) {
	if m := ni.startRecv(src, tag, f); m != nil {
		f.Complete(m)
	}
}

// takeHandle retires handle and returns the Future its arecv completes —
// already done if the message has arrived — or an error when no arecv
// posted it.
func (ni *NodeIf) takeHandle(handle uint64) (*pearl.Future, error) {
	f, ok := ni.handles[handle]
	if !ok {
		return nil, fmt.Errorf("waitrecv on handle %d, which no pending arecv posted", handle)
	}
	delete(ni.handles, handle)
	return f, nil
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
// message. An ack completes the Future its sender awaits.
func (ni *NodeIf) arrive(m *Message) {
	if m.isAck {
		m.ackFut.Complete(nil)
		ni.led.recycleAck(m)
		return
	}
	for i, w := range ni.waiters {
		if matches(w.src, w.tag, m) {
			ni.waiters = append(ni.waiters[:i], ni.waiters[i+1:]...)
			ni.sendAck(m)
			w.fut.Complete(m)
			return
		}
	}
	ni.arrived = append(ni.arrived, m)
}

// Stats reports the interface's counters.
func (ni *NodeIf) Stats() *stats.Set { return ni.ifStats(ni.id) }
