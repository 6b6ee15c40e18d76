package network

import (
	"fmt"
	"io"
	"sort"

	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// CompactNet is the struct-of-arrays task-level engine: the same machine
// model as Network + Processor per node, but with the per-node coroutine
// processes replaced by a flat array of small state machines driven by plain
// kernel events. One bound closure per node and one pooled record per packet
// in flight replace the O(N) coroutine stacks and named resources of the
// process engine, cutting memory per node by two orders of magnitude and
// removing all process hand-offs — which is what makes 10^5..10^6-node
// task-level machines tractable.
//
// Equivalence contract: the compact engine is a continuation-passing
// transform of the process engine. Every kernel interaction of the legacy
// path (Spawn, Hold, blocked Acquire/Release handoff, Future completion) is
// replaced by exactly one k.After at the identical program point, so the
// (time, seq) order of every event — and therefore every RNG draw, every
// counter, every histogram observation and the kernel event count — is
// identical, and a run's report is byte-for-byte the same as the process
// engine's (pinned by TestCompactEngineByteIdentical). What is not
// transformed is shared outright: each node carries a NodeIf, so matching,
// arecv handles and rendezvous acks are the code Network's processes call,
// and the traffic counters, metric names and report sets are the embedded
// Traffic ledger. Timeline probes and the bottleneck collector are the two
// features the transform does not carry; NewCompact rejects them.
type CompactNet struct {
	Traffic

	deg int
	rng *pearl.RNG // Valiant intermediate draws, same stream as Network

	// Directed link state, struct-of-arrays, indexed (node*deg+port)*numVCs+vc
	// exactly like Network.links. Each virtual channel is a capacity-1
	// resource: busy flag, busy-cycle integral and last-change time mirror
	// pearl.Resource's accounting field-for-field, and the wait queue holds
	// the continuations of packets blocked on the channel. The queue map is
	// empty except under contention, so idle links cost 17 bytes instead of a
	// named Resource allocation.
	linkBusy    []uint8
	linkLast    []pearl.Time
	linkBusyCyc []pearl.Time
	linkWait    map[int32][]func()
	wiredPort   []bool // per (node*deg+port); both VCs share the wiring

	nodes []cnode // per-node state machines; never resized, so counters stay addressable

	pktFree  *cpkt // free list: packet records recycle across the run
	firstErr error
}

// Node phases: where a node's state machine resumes when its continuation
// fires. cnRun re-enters the fetch-execute loop directly.
const (
	cnRun         uint8 = iota
	cnComputeDone       // Hold(dur) of a compute task elapsed
	cnSendBody          // send overhead elapsed; inject the message
	cnSendAcked         // rendezvous ack arrived; finish the sync send
	cnRecvBody          // recv overhead elapsed; match or block
	cnRecvGot           // the receive the node is parked on matched
	cnARecvBody         // recv overhead elapsed; post the async receive
)

// cnode is one node: its network interface, whose resume is the node's single
// continuation (bound at build time; every event the node schedules reuses
// it), and the processor's driver state — the trace cursor, the operation in
// flight across a hold, the phase to resume in and when the node blocked.
type cnode struct {
	NodeIf
	cur *trace.Cursor

	ev         trace.Event
	phase      uint8
	done       bool
	blockStart pearl.Time
}

// Packet phases: where a packet's walk resumes when its continuation fires.
const (
	ppStart     uint8 = iota // begin a delivery attempt
	ppGranted                // channel handed over by a releasing packet
	ppAfterHold              // per-hop hold elapsed
	ppDrain                  // body drained at the destination
	ppRetry                  // retransmission backoff elapsed
)

// cpkt is one packet in flight: the pooled, closure-driven equivalent of a
// forward() process. Records are recycled through CompactNet.pktFree, so a
// steady-state run allocates no per-packet state at all.
type cpkt struct {
	c    *CompactNet
	cont func()
	next *cpkt // free list

	msg     *Message
	bytes   uint32
	idx     int // packet index within the message (diagnostics)
	attempt int

	at, target int
	nextWp     int // pending Valiant waypoint (the true dst), -1 if none
	hops       int
	wrapped    uint32 // per-dimension dateline crossings, bitmask
	phase      uint8

	// The hop in progress: link index just acquired, its port and far end.
	pendLi   int
	pendPort int
	pendNext int

	held []int32 // wormhole: channel indices owned by the worm
}

// NewCompact builds the compact engine on env's kernel. The probe registry is
// populated in Network.New's order — every interface, then the traffic
// ledger; timeline probes and the bottleneck collector are not supported at
// this abstraction (they observe per-process structure the compact engine
// does not have).
func NewCompact(env sim.Env, cfg Config) (*CompactNet, error) {
	fab, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	k, pb := env.Kernel, env.Probe
	if k == nil {
		return nil, fmt.Errorf("network: sim.Env without a kernel")
	}
	if pb.Timeline() != nil {
		return nil, fmt.Errorf("network: compact engine does not support timeline probes; use the process engine")
	}
	if env.Collect.Enabled() {
		return nil, fmt.Errorf("network: compact engine does not support the bottleneck collector; use the process engine")
	}
	topo := fab.topo
	c := &CompactNet{Traffic: Traffic{fabric: fab, k: k}, rng: pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431)}
	c.tr = c
	n := topo.Nodes()
	c.deg = topo.Degree()
	links := n * c.deg * numVCs
	c.linkBusy = make([]uint8, links)
	c.linkLast = make([]pearl.Time, links)
	c.linkBusyCyc = make([]pearl.Time, links)
	c.linkWait = make(map[int32][]func())
	c.wiredPort = make([]bool, n*c.deg)
	for node := 0; node < n; node++ {
		for port := 0; port < c.deg; port++ {
			c.wiredPort[node*c.deg+port] = topo.Neighbor(node, port) >= 0
		}
	}
	c.nodes = make([]cnode, n)
	reg := pb.Registry()
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.NodeIf = NodeIf{led: &c.Traffic, id: i, resume: func() { c.step(nd) }}
		nd.registerIf(reg, i)
	}
	c.register(reg, c.linkUtilization)
	return c, nil
}

// Attach installs node i's trace source and schedules the node's first
// fetch at time zero — the compact equivalent of Processor.Spawn. Call in
// ascending node order to match the process engine's spawn sequence.
func (c *CompactNet) Attach(i int, src trace.Source) {
	nd := &c.nodes[i]
	nd.cur = trace.NewCursor(src)
	nd.phase = cnRun
	c.k.After(0, nd.resume)
}

// step resumes a node's state machine when its continuation fires: it
// finishes the phase the node was suspended in, then re-enters the
// fetch-execute loop.
func (c *CompactNet) step(nd *cnode) {
	now := c.k.Now()
	switch nd.phase {
	case cnRun, cnComputeDone:
		// Initial fetch, or a compute hold elapsed: nothing to finish.
	case cnSendBody:
		if !c.sendBody(nd) {
			return // parked awaiting the rendezvous ack
		}
	case cnSendAcked:
		nd.sendBlock += now - nd.blockStart
		o := &nd.ev.Op
		finishOp(nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	case cnRecvBody:
		if !c.recvBody(nd) {
			return // parked awaiting a matching arrival
		}
	case cnRecvGot:
		m := nd.parked.Value().(*Message)
		nd.parked = nil
		nd.recvBlock += now - nd.blockStart
		finishRecv(nd, m)
	case cnARecvBody:
		c.arecvBody(nd)
	}
	nd.phase = cnRun
	c.runLoop(nd)
}

// runLoop is Processor.Run: fetch operations until the trace ends, an error
// surfaces, or an operation suspends the node.
func (c *CompactNet) runLoop(nd *cnode) {
	for {
		ev, err := nd.cur.Next()
		if err == io.EOF {
			nd.done = true
			return
		}
		if err != nil {
			c.fail(nd, err)
			return
		}
		nd.ev = ev
		if !c.execOp(nd) {
			return
		}
	}
}

func (c *CompactNet) fail(nd *cnode, err error) {
	nd.done = true
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// execOp is Processor.exec over the non-blocking halves of the NodeIf
// operations, each hold a suspension of the node. It reports whether the
// operation completed synchronously (true: keep fetching).
func (c *CompactNet) execOp(nd *cnode) bool {
	o := &nd.ev.Op
	switch o.Kind {
	case ops.Compute:
		nd.compute += pearl.Time(o.Dur)
		nd.tasks.Inc()
		if o.Dur > 0 {
			return c.suspend(nd, cnComputeDone, pearl.Time(o.Dur))
		}
		return true
	case ops.Send, ops.ASend:
		hold, err := nd.beginSend(int(o.Peer))
		if err != nil {
			c.fail(nd, fmt.Errorf("node %d cpu 0 (rank %d): %w", nd.id, nd.id, err))
			return false
		}
		if hold > 0 {
			return c.suspend(nd, cnSendBody, hold)
		}
		return c.sendBody(nd)
	case ops.Recv:
		if hold := nd.beginRecv(); hold > 0 {
			return c.suspend(nd, cnRecvBody, hold)
		}
		return c.recvBody(nd)
	case ops.ARecv:
		if hold := nd.beginRecv(); hold > 0 {
			return c.suspend(nd, cnARecvBody, hold)
		}
		c.arecvBody(nd)
		return true
	case ops.WaitRecv:
		f := nd.startWait(o.Addr)
		if f.Done() {
			finishRecv(nd, f.Value().(*Message))
			return true
		}
		return c.park(nd, cnRecvGot, f)
	default:
		c.fail(nd, fmt.Errorf("network: task-level trace for node %d contains %s; "+
			"instruction-level operations need the computational model", nd.id, o.Kind))
		return false
	}
}

// suspend resumes the node in phase after d cycles — a Hold.
func (c *CompactNet) suspend(nd *cnode, phase uint8, d pearl.Time) bool {
	nd.phase = phase
	c.k.After(d, nd.resume)
	return false
}

// park blocks the node in phase until its interface resumes it: on the
// rendezvous ack of a synchronous send (f nil), or on f's completion.
func (c *CompactNet) park(nd *cnode, phase uint8, f *pearl.Future) bool {
	nd.parked = f
	nd.blockStart = c.k.Now()
	nd.phase = phase
	return false
}

// finishOp delivers the trace feedback — the tail every comm operation
// shares in Processor.exec.
func finishOp(nd *cnode, fb trace.Feedback) {
	if nd.ev.Resume != nil {
		nd.ev.Resume(fb)
	}
}

// finishRecv delivers a received message's feedback.
func finishRecv(nd *cnode, m *Message) {
	finishOp(nd, trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
}

// sendBody runs NodeIf.Send past its overhead. A synchronous send parks the
// node until the rendezvous ack arrives (false); an asynchronous send
// completes in place (true).
func (c *CompactNet) sendBody(nd *cnode) bool {
	o := &nd.ev.Op
	nd.startSend(int(o.Peer), o.Size, o.Tag, nd.ev.Payload, o.Kind == ops.Send)
	if o.Kind == ops.Send {
		return c.park(nd, cnSendAcked, nil)
	}
	finishOp(nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	return true
}

// recvBody runs NodeIf.Recv past its overhead.
func (c *CompactNet) recvBody(nd *cnode) bool {
	o := &nd.ev.Op
	m, f := nd.startRecv(o.Peer, o.Tag)
	if f != nil {
		return c.park(nd, cnRecvGot, f)
	}
	finishRecv(nd, m)
	return true
}

// arecvBody runs NodeIf.PostRecv past its overhead; it never blocks.
func (c *CompactNet) arecvBody(nd *cnode) {
	o := &nd.ev.Op
	nd.postRecv(o.Peer, o.Tag, o.Addr)
	finishOp(nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
}

// inject launches the transport of msg — Network.inject, with packet
// processes replaced by pooled packet records.
func (c *CompactNet) inject(msg *Message) {
	c.countInjection(msg, c.k.Now())
	if msg.Src == msg.Dst {
		c.k.After(c.copyTime(msg.Size), func() { c.delivered(msg) })
		return
	}
	pkts := c.cfg.Router.Packetize(msg.Size)
	msg.remaining = len(pkts)
	for i, pb := range pkts {
		c.packets.Inc()
		pk := c.newPkt(msg, pb, i)
		c.k.After(0, pk.cont)
	}
}

// delivered hands a fully arrived message to the destination interface.
func (c *CompactNet) delivered(msg *Message) {
	c.countDelivery(msg, c.k.Now())
	c.nodes[msg.Dst].arrive(msg)
}

func (c *CompactNet) newPkt(msg *Message, bytes uint32, idx int) *cpkt {
	pk := c.pktFree
	if pk == nil {
		pk = &cpkt{c: c}
		pk.cont = pk.step
	} else {
		c.pktFree = pk.next
	}
	pk.msg, pk.bytes, pk.idx = msg, bytes, idx
	pk.attempt = 0
	pk.phase = ppStart
	return pk
}

func (c *CompactNet) freePkt(pk *cpkt) {
	pk.msg = nil
	pk.held = pk.held[:0]
	pk.next = c.pktFree
	c.pktFree = pk
}

// step resumes a packet's walk when its continuation fires.
func (pk *cpkt) step() {
	c := pk.c
	switch pk.phase {
	case ppStart, ppRetry:
		c.attemptStart(pk)
	case ppGranted:
		c.granted(pk)
	case ppAfterHold:
		c.afterHold(pk)
	case ppDrain:
		c.finishAttempt(pk)
	}
}

// attemptStart begins one delivery attempt — the head of attemptForward.
func (c *CompactNet) attemptStart(pk *cpkt) {
	rc := &c.cfg.Router
	pk.hops = 0
	pk.wrapped = 0
	pk.at = pk.msg.Src
	if c.faults != nil && (c.faults.NodeDown(pk.msg.Src) || c.faults.NodeDown(pk.msg.Dst)) {
		c.faults.CountDrop()
		c.failAttempt(pk)
		return
	}
	pk.target = pk.msg.Dst
	pk.nextWp = -1
	if rc.Routing == router.Valiant && c.table == nil {
		if mid := c.rng.Intn(c.topo.Nodes()); mid != pk.msg.Src && mid != pk.msg.Dst {
			pk.target = mid
			pk.nextWp = pk.msg.Dst
		}
	}
	c.hopLoop(pk)
}

// hopLoop advances the packet hop by hop until it reaches the destination,
// suspends on a busy channel or an in-progress hop, or the attempt fails.
// It is the body of attemptForward's main loop, with Acquire and Hold turned
// into continuation suspensions.
func (c *CompactNet) hopLoop(pk *cpkt) {
	rc := &c.cfg.Router
	for pk.at != pk.msg.Dst {
		if pk.at == pk.target && pk.nextWp >= 0 {
			pk.target = pk.nextWp
			pk.nextWp = -1
		}
		var port int
		switch {
		case c.table != nil:
			port = c.table.Port(pk.at, pk.target)
			if port < 0 {
				c.faults.CountDrop()
				c.releaseHeld(pk)
				c.failAttempt(pk)
				return
			}
		case rc.Routing == router.Adaptive:
			port = c.adaptivePort(pk.at, pk.target)
		default:
			port = c.topo.Route(pk.at, pk.target)
		}
		if c.faults != nil && c.faults.LinkDown(pk.at, port) {
			c.faults.CountDrop()
			c.releaseHeld(pk)
			c.failAttempt(pk)
			return
		}
		next := c.topo.Neighbor(pk.at, port)
		vc := 0
		if rc.Switching == router.Wormhole {
			d := c.topo.PortDim(port)
			if c.topo.Dateline(pk.at, port) {
				pk.wrapped |= 1 << d
			}
			if pk.wrapped&(1<<d) != 0 {
				vc = 1
			}
		}
		li := (pk.at*c.deg+port)*numVCs + vc
		pk.pendLi, pk.pendPort, pk.pendNext = li, port, next
		if c.linkBusy[li] == 0 && len(c.linkWait[int32(li)]) == 0 {
			c.accountLink(li)
			c.linkBusy[li]++
			c.granted(pk)
		} else {
			pk.phase = ppGranted
			c.linkWait[int32(li)] = append(c.linkWait[int32(li)], pk.cont)
		}
		return
	}
	c.arrivedAtDst(pk)
}

// granted owns the channel at pk.pendLi: count the hop and start crossing —
// the switch on rc.Switching after Acquire in attemptForward.
func (c *CompactNet) granted(pk *cpkt) {
	rc := &c.cfg.Router
	pk.hops++
	perHop := rc.RoutingDelay + c.cfg.Link.PropDelay
	pk.phase = ppAfterHold
	switch rc.Switching {
	case router.StoreAndForward:
		c.k.After(perHop+c.transferTime(pk.bytes), pk.cont)
	case router.VirtualCutThrough:
		c.k.After(perHop, pk.cont)
	case router.Wormhole:
		pk.held = append(pk.held, int32(pk.pendLi))
		c.k.After(perHop, pk.cont)
	}
}

// afterHold finishes the hop in progress: free or schedule freeing the
// channel, run the per-hop fault checks, advance.
func (c *CompactNet) afterHold(pk *cpkt) {
	switch c.cfg.Router.Switching {
	case router.StoreAndForward:
		c.release(pk.pendLi)
	case router.VirtualCutThrough:
		li := pk.pendLi
		c.k.After(c.transferTime(pk.bytes), func() { c.release(li) })
	}
	if c.faults != nil {
		if c.faults.LinkDown(pk.at, pk.pendPort) {
			c.faults.CountDrop()
			c.releaseHeld(pk)
			c.failAttempt(pk)
			return
		}
		if c.faults.HopFate(pk.at, pk.pendPort) != fault.OK {
			c.releaseHeld(pk)
			c.failAttempt(pk)
			return
		}
	}
	pk.at = pk.pendNext
	c.hopLoop(pk)
}

// arrivedAtDst runs the attempt epilogue once the header is at the
// destination: drain the body (non-SAF), then finish.
func (c *CompactNet) arrivedAtDst(pk *cpkt) {
	if c.cfg.Router.Switching != router.StoreAndForward {
		pk.phase = ppDrain
		c.k.After(c.transferTime(pk.bytes), pk.cont)
		return
	}
	c.finishAttempt(pk)
}

// finishAttempt ends a successful traversal — the tail of attemptForward
// plus the delivery bookkeeping of forward.
func (c *CompactNet) finishAttempt(pk *cpkt) {
	c.releaseHeld(pk)
	if c.faults != nil && c.faults.NodeDown(pk.msg.Dst) {
		c.faults.CountDrop()
		c.failAttempt(pk)
		return
	}
	c.hopHist.Observe(int64(pk.hops))
	msg := pk.msg
	c.freePkt(pk)
	msg.remaining--
	if msg.remaining == 0 {
		c.delivered(msg)
	}
}

// failAttempt is forward's retransmission loop: back off and retry, or
// abandon the packet after MaxRetries.
func (c *CompactNet) failAttempt(pk *cpkt) {
	pk.attempt++
	delay, ok := c.retry(pk.attempt)
	if !ok {
		c.freePkt(pk)
		return
	}
	pk.phase = ppRetry
	c.k.After(delay, pk.cont)
}

func (c *CompactNet) releaseHeld(pk *cpkt) {
	for _, li := range pk.held {
		c.release(int(li))
	}
	pk.held = pk.held[:0]
}

// accountLink is pearl.Resource.account for link li: integrate the busy
// units over the interval since the last change.
func (c *CompactNet) accountLink(li int) {
	now := c.k.Now()
	c.linkBusyCyc[li] += pearl.Time(c.linkBusy[li]) * (now - c.linkLast[li])
	c.linkLast[li] = now
}

// release frees one channel unit and, like pearl.Resource.Release, transfers
// it directly to the head waiter, waking it with a single event.
func (c *CompactNet) release(li int) {
	c.accountLink(li)
	c.linkBusy[li]--
	if q := c.linkWait[int32(li)]; len(q) > 0 {
		cont := q[0]
		copy(q, q[1:])
		q = q[:len(q)-1]
		if len(q) == 0 {
			delete(c.linkWait, int32(li))
		} else {
			c.linkWait[int32(li)] = q
		}
		c.linkBusy[li]++
		c.k.After(0, cont)
	}
}

// adaptivePort is Network.adaptivePort over the SoA link state.
func (c *CompactNet) adaptivePort(at, to int) int {
	ports := c.topo.MinimalPorts(at, to)
	best := ports[0]
	bestLoad := 1 << 30
	for _, p := range ports {
		li := (at*c.deg + p) * numVCs
		load := int(c.linkBusy[li]) + len(c.linkWait[int32(li)])
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// Err returns the first trace error any node hit, if any.
func (c *CompactNet) Err() error { return c.firstErr }

// AllDone reports whether every node has drained its trace.
func (c *CompactNet) AllDone() bool {
	for i := range c.nodes {
		if !c.nodes[i].done {
			return false
		}
	}
	return true
}

// Blocked describes the suspended nodes and channel-queued packets for
// deadlock reports, in the process engine's "name (reason)" style.
func (c *CompactNet) Blocked() []string {
	var out []string
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.done {
			continue
		}
		switch nd.phase {
		case cnSendAcked, cnRecvGot:
			out = append(out, fmt.Sprintf("proc%d (await)", i))
		}
	}
	lis := make([]int, 0, len(c.linkWait))
	for li := range c.linkWait {
		lis = append(lis, int(li))
	}
	sort.Ints(lis)
	for _, li := range lis {
		port := li / numVCs
		out = append(out, fmt.Sprintf("%d pkt (acquire link.%d.%d.vc%d)",
			len(c.linkWait[int32(li)]), port/c.deg, port%c.deg, li%numVCs))
	}
	return out
}

// linkUtilization returns the mean and maximum utilisation over all links,
// walking the wired channels in the same order as Network's.
func (c *CompactNet) linkUtilization() (avg, max float64) {
	now := c.k.Now()
	count := 0
	for li := range c.linkBusy {
		if !c.wiredPort[li/numVCs] {
			continue
		}
		var u float64
		if now > 0 {
			c.accountLink(li)
			u = float64(c.linkBusyCyc[li]) / float64(now)
		}
		avg += u
		if u > max {
			max = u
		}
		count++
	}
	if count > 0 {
		avg /= float64(count)
	}
	return avg, max
}

// ProcStats reports node i's processor and interface counters.
func (c *CompactNet) ProcStats(i int) *stats.Set { return c.nodes[i].procStats(i) }
