package network

import (
	"fmt"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// NodeIf is one node's network interface: the API through which both the
// abstract processor (task-level mode) and the single-node computational
// model (detailed mode) perform message passing. Matching follows MPI-like
// semantics: a receive names a source (or ops.AnyPeer) and a tag; arrivals
// match the oldest compatible posted receive, and receives match the oldest
// compatible arrival — "oldest" in simulated time, which is what makes the
// generated multiprocessor traces valid.
type NodeIf struct {
	tr transport
	k  *pearl.Kernel
	id int

	// msgSeq numbers the messages this interface injects; the sharded
	// transport uses (node, msgSeq) as a message's deterministic identity.
	msgSeq uint64

	arrived []*Message
	waiters []*recvWait
	handles map[uint64]*pearl.Future

	sends     stats.Counter
	recvs     stats.Counter
	sendBlock pearl.Time // cycles spent blocked in synchronous sends
	recvBlock pearl.Time // cycles spent blocked waiting for arrivals
}

// transport is the fabric behind a NodeIf: the single-kernel Network or the
// sharded fabric. The interface carries exactly the calls the node-facing
// API needs, so NodeIf semantics (matching, overheads, rendezvous acks) are
// shared verbatim between both engines.
type transport interface {
	nodeCount() int
	config() *Config
	inject(m *Message)
	sendAck(m *Message)
}

type recvWait struct {
	src int32
	tag uint32
	fut *pearl.Future
}

func matches(src int32, tag uint32, m *Message) bool {
	return (src == ops.AnyPeer || int(src) == m.Src) && tag == m.Tag
}

// ID returns the node id.
func (ni *NodeIf) ID() int { return ni.id }

// Send transmits size bytes to dst. When sync is true the call blocks (in
// simulated time) until the destination has accepted the message —
// synchronous send(message-size, destination) of Table 1; otherwise it
// returns after the send overhead — asend.
func (ni *NodeIf) Send(p *pearl.Process, dst int, size uint32, tag uint32, payload any, sync bool) {
	if dst < 0 || dst >= ni.tr.nodeCount() {
		panic(fmt.Sprintf("network: node %d sending to invalid destination %d", ni.id, dst))
	}
	ni.sends.Inc()
	if ni.tr.config().SendOverhead > 0 {
		p.Hold(ni.tr.config().SendOverhead)
	}
	msg := &Message{Src: ni.id, Dst: dst, Size: size, Tag: tag, Payload: payload, Sync: sync}
	if sync {
		msg.ackFut = ni.k.NewFuture()
	}
	ni.tr.inject(msg)
	if sync {
		start := p.Now()
		p.Await(msg.ackFut)
		ni.sendBlock += p.Now() - start
	}
}

// Recv blocks until a message matching (src, tag) has arrived, returning it.
// src may be ops.AnyPeer; the message that arrived first in simulated time
// wins — the feedback the execution-driven trace generation relies on.
func (ni *NodeIf) Recv(p *pearl.Process, src int32, tag uint32) *Message {
	ni.recvs.Inc()
	if ni.tr.config().RecvOverhead > 0 {
		p.Hold(ni.tr.config().RecvOverhead)
	}
	if m := ni.takeArrived(src, tag); m != nil {
		ni.tr.sendAck(m)
		return m
	}
	w := &recvWait{src: src, tag: tag, fut: ni.k.NewFuture()}
	ni.waiters = append(ni.waiters, w)
	start := p.Now()
	m := p.Await(w.fut).(*Message)
	ni.recvBlock += p.Now() - start
	return m
}

// PostRecv posts an asynchronous receive (arecv) under the given handle and
// returns immediately; complete it with WaitRecv.
func (ni *NodeIf) PostRecv(p *pearl.Process, src int32, tag uint32, handle uint64) {
	ni.recvs.Inc()
	if ni.tr.config().RecvOverhead > 0 {
		p.Hold(ni.tr.config().RecvOverhead)
	}
	if _, dup := ni.handles[handle]; dup {
		panic(fmt.Sprintf("network: node %d reusing arecv handle %d", ni.id, handle))
	}
	fut := ni.k.NewFuture()
	ni.handles[handle] = fut
	if m := ni.takeArrived(src, tag); m != nil {
		ni.tr.sendAck(m)
		fut.Complete(m)
		return
	}
	ni.waiters = append(ni.waiters, &recvWait{src: src, tag: tag, fut: fut})
}

// WaitRecv blocks until the arecv posted under handle has completed,
// returning its message.
func (ni *NodeIf) WaitRecv(p *pearl.Process, handle uint64) *Message {
	fut, ok := ni.handles[handle]
	if !ok {
		panic(fmt.Sprintf("network: node %d waiting on unknown arecv handle %d", ni.id, handle))
	}
	delete(ni.handles, handle)
	start := p.Now()
	m := p.Await(fut).(*Message)
	ni.recvBlock += p.Now() - start
	return m
}

// takeArrived removes and returns the oldest arrived message matching
// (src, tag), or nil.
func (ni *NodeIf) takeArrived(src int32, tag uint32) *Message {
	for i, m := range ni.arrived {
		if matches(src, tag, m) {
			ni.arrived = append(ni.arrived[:i], ni.arrived[i+1:]...)
			return m
		}
	}
	return nil
}

// arrive is called by the transport when a message has fully arrived at this
// node: it matches the oldest compatible posted receive or queues the
// message.
func (ni *NodeIf) arrive(m *Message) {
	if m.isAck {
		m.ackFut.Complete(nil)
		return
	}
	for i, w := range ni.waiters {
		if matches(w.src, w.tag, m) {
			ni.waiters = append(ni.waiters[:i], ni.waiters[i+1:]...)
			ni.tr.sendAck(m)
			w.fut.Complete(m)
			return
		}
	}
	ni.arrived = append(ni.arrived, m)
}

// Stats reports the interface's counters.
func (ni *NodeIf) Stats() *stats.Set {
	s := stats.NewSet(fmt.Sprintf("nif%d", ni.id))
	s.PutUint("sends", ni.sends.Value(), "")
	s.PutUint("recvs", ni.recvs.Value(), "")
	s.PutInt("send blocked", int64(ni.sendBlock), "cyc")
	s.PutInt("recv blocked", int64(ni.recvBlock), "cyc")
	return s
}
