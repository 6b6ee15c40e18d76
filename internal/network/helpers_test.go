package network

import (
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/trace"
)

func traceFromOps(t []ops.Op) trace.Source { return trace.FromOps(t) }

// comm performs o on ni as a blocking call of process p: the operation's
// Comm chained through p.HoldWhile.
func comm(p *pearl.Process, ni *NodeIf, o ops.Op, payload any) *Message {
	var c Comm
	if err := c.Begin(ni, o, payload); err != nil {
		panic(err)
	}
	p.HoldWhile(c.Step)
	return c.Message()
}

// send transmits size bytes to dst, synchronously when sync is true.
func send(p *pearl.Process, ni *NodeIf, dst int, size, tag uint32, payload any, sync bool) {
	kind := ops.ASend
	if sync {
		kind = ops.Send
	}
	comm(p, ni, ops.Op{Kind: kind, Peer: int32(dst), Size: size, Tag: tag}, payload)
}

// recv blocks until a message matching (src, tag) has arrived.
func recv(p *pearl.Process, ni *NodeIf, src int32, tag uint32) *Message {
	return comm(p, ni, ops.Op{Kind: ops.Recv, Peer: src, Tag: tag}, nil)
}

// postRecv posts an arecv under handle.
func postRecv(p *pearl.Process, ni *NodeIf, src int32, tag uint32, handle uint64) {
	comm(p, ni, ops.Op{Kind: ops.ARecv, Peer: src, Tag: tag, Addr: handle}, nil)
}

// waitRecv blocks until the arecv posted under handle has completed.
func waitRecv(p *pearl.Process, ni *NodeIf, handle uint64) *Message {
	return comm(p, ni, ops.Op{Kind: ops.WaitRecv, Addr: handle}, nil)
}
