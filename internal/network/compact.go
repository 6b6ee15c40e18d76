package network

import (
	"fmt"
	"io"
	"sort"

	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// CompactNet is the struct-of-arrays task-level engine: the same machine
// model as Network + Processor per node, but with the per-node coroutine
// processes replaced by a flat array of small state machines driven by plain
// kernel events. One bound closure per node and one pooled record per packet
// in flight replace the O(N) coroutine stacks, futures and named resources of
// the process engine, cutting memory per node by two orders of magnitude and
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
// engine's (pinned by TestCompactEngineByteIdentical). Timeline probes and
// the bottleneck collector are the two features the transform does not carry;
// NewCompact rejects them.
type CompactNet struct {
	k    *pearl.Kernel
	cfg  Config
	topo topology.Topology
	deg  int
	rng  *pearl.RNG // Valiant intermediate draws, same stream as Network

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

	// Per-node state. Numeric accounting lives in flat arrays (the SoA layout
	// keeps the report-generation scans cache-linear and the counters
	// addressable for the probe registry); variable-size matching state lives
	// in the parallel cnode records.
	nodes         []cnode
	computeCycles []pearl.Time
	commCycles    []pearl.Time
	sendBlock     []pearl.Time
	recvBlock     []pearl.Time
	taskCount     []stats.Counter
	sends         []stats.Counter
	recvs         []stats.Counter

	msgLatency stats.Histogram
	hopHist    stats.Histogram
	messages   stats.Counter
	packets    stats.Counter
	bytes      stats.Counter
	acks       stats.Counter

	// Fault-injection state, mirroring Network (nil/zero on a healthy build).
	faults      *fault.Injector
	table       *router.LazyTable
	retransmits stats.Counter
	lost        stats.Counter
	repaths     stats.Counter

	reg *probe.Registry

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
	cnRecvGot           // blocking receive matched; finish the recv
	cnARecvBody         // recv overhead elapsed; post the async receive
)

// cnode is one node's processor + network-interface state: the trace cursor,
// the operation in flight across a hold, and the MPI-style matching state of
// NodeIf. 'cont' is the node's single continuation, bound at attach time;
// every event the node schedules reuses it.
type cnode struct {
	cur     *trace.Cursor
	cont    func()
	ackCont func() // completes the pending rendezvous ack (at most one)

	ev         trace.Event
	phase      uint8
	done       bool
	err        error
	opStart    pearl.Time
	blockStart pearl.Time
	wait       *cfut // future the node is parked on (blocking receives)

	arrived []*Message
	waiters []crecvWait
	handles map[uint64]*cfut // lazily allocated; most nodes never arecv
}

// cfut is the compact engine's future: completion value plus whether the
// owning node is parked on it (mirrors pearl.Future's waiter list, which here
// can hold at most the one owning node).
type cfut struct {
	val     *Message
	node    int32
	done    bool
	waiting bool
}

type crecvWait struct {
	src int32
	tag uint32
	fut *cfut
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
// populated with the same entries, names and order as Network.New; timeline
// probes and the bottleneck collector are not supported at this abstraction
// (they observe per-process structure the compact engine does not have).
func NewCompact(env sim.Env, cfg Config) (*CompactNet, error) {
	if err := cfg.Validate(); err != nil {
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
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.LocalBytesPerCycle <= 0 {
		cfg.LocalBytesPerCycle = 8
	}
	c := &CompactNet{k: k, cfg: cfg, topo: topo, rng: pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431)}
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
	c.computeCycles = make([]pearl.Time, n)
	c.commCycles = make([]pearl.Time, n)
	c.sendBlock = make([]pearl.Time, n)
	c.recvBlock = make([]pearl.Time, n)
	c.taskCount = make([]stats.Counter, n)
	c.sends = make([]stats.Counter, n)
	c.recvs = make([]stats.Counter, n)
	reg := pb.Registry()
	for i := 0; i < n; i++ {
		reg.Counter(fmt.Sprintf("net.nif%d.sends", i), &c.sends[i])
		reg.Counter(fmt.Sprintf("net.nif%d.recvs", i), &c.recvs[i])
	}
	reg.Counter("net.messages", &c.messages)
	reg.Counter("net.packets", &c.packets)
	reg.Counter("net.bytes", &c.bytes)
	reg.Counter("net.acks", &c.acks)
	reg.Gauge("net.latency.mean", "cyc", c.msgLatency.Mean)
	reg.Gauge("net.hops.mean", "", c.hopHist.Mean)
	reg.Gauge("net.link-utilization.avg", "", func() float64 { avg, _ := c.LinkUtilization(); return avg })
	c.reg = reg
	return c, nil
}

// AttachFaults activates fault injection, exactly as Network.AttachFaults:
// table-based re-pathing over the live graph with lazily built rows, and
// retransmission with exponential backoff.
func (c *CompactNet) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	c.faults = inj
	c.reg.Counter("net.retransmits", &c.retransmits)
	c.reg.Counter("net.lost", &c.lost)
	c.reg.Counter("net.repaths", &c.repaths)
	c.table = router.NewLazyTable(c.topo, inj.Alive)
	inj.OnChange(func() {
		c.table.Invalidate()
		c.repaths.Inc()
	})
}

// Attach installs node i's trace source and schedules the node's first
// fetch at time zero — the compact equivalent of Processor.Spawn. Call in
// ascending node order to match the process engine's spawn sequence.
func (c *CompactNet) Attach(i int, src trace.Source) {
	nd := &c.nodes[i]
	nd.cur = trace.NewCursor(src)
	id := int32(i)
	nd.cont = func() { c.step(id) }
	nd.ackCont = func() { c.k.After(0, nd.cont) }
	nd.phase = cnRun
	c.k.After(0, nd.cont)
}

// step resumes node i's state machine when its continuation fires: it
// finishes the phase the node was suspended in, then re-enters the
// fetch-execute loop.
func (c *CompactNet) step(i int32) {
	nd := &c.nodes[i]
	now := c.k.Now()
	switch nd.phase {
	case cnRun, cnComputeDone:
		// Initial fetch, or a compute hold elapsed: nothing to finish.
	case cnSendBody:
		if !c.sendBody(i, nd) {
			return // parked awaiting the rendezvous ack
		}
	case cnSendAcked:
		c.sendBlock[i] += now - nd.blockStart
		o := &nd.ev.Op
		c.finishOp(i, nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	case cnRecvBody:
		if !c.recvBody(i, nd) {
			return // parked awaiting a matching arrival
		}
	case cnRecvGot:
		m := nd.wait.val
		nd.wait = nil
		c.recvBlock[i] += now - nd.blockStart
		c.finishOp(i, nd, trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
	case cnARecvBody:
		c.arecvBody(i, nd)
	}
	nd.phase = cnRun
	c.runLoop(i, nd)
}

// runLoop is Processor.Run: fetch operations until the trace ends, an error
// surfaces, or an operation suspends the node.
func (c *CompactNet) runLoop(i int32, nd *cnode) {
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
		if !c.execOp(i, nd) {
			return
		}
	}
}

func (c *CompactNet) fail(nd *cnode, err error) {
	nd.err = err
	nd.done = true
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// execOp is Processor.exec fused with the NodeIf entry points. It reports
// whether the operation completed synchronously (true: keep fetching).
func (c *CompactNet) execOp(i int32, nd *cnode) bool {
	o := &nd.ev.Op
	nd.opStart = c.k.Now()
	switch o.Kind {
	case ops.Compute:
		c.computeCycles[i] += pearl.Time(o.Dur)
		c.taskCount[i].Inc()
		if o.Dur > 0 {
			nd.phase = cnComputeDone
			c.k.After(pearl.Time(o.Dur), nd.cont)
			return false
		}
		return true
	case ops.Send, ops.ASend:
		if err := checkDest(int(o.Peer), c.topo.Nodes()); err != nil {
			c.fail(nd, fmt.Errorf("node %d cpu 0 (rank %d): %w", i, i, err))
			return false
		}
		c.sends[i].Inc()
		if c.cfg.SendOverhead > 0 {
			nd.phase = cnSendBody
			c.k.After(c.cfg.SendOverhead, nd.cont)
			return false
		}
		return c.sendBody(i, nd)
	case ops.Recv:
		c.recvs[i].Inc()
		if c.cfg.RecvOverhead > 0 {
			nd.phase = cnRecvBody
			c.k.After(c.cfg.RecvOverhead, nd.cont)
			return false
		}
		return c.recvBody(i, nd)
	case ops.ARecv:
		c.recvs[i].Inc()
		if c.cfg.RecvOverhead > 0 {
			nd.phase = cnARecvBody
			c.k.After(c.cfg.RecvOverhead, nd.cont)
			return false
		}
		c.arecvBody(i, nd)
		return true
	case ops.WaitRecv:
		return c.waitBody(i, nd)
	default:
		c.fail(nd, fmt.Errorf("network: task-level trace for node %d contains %s; "+
			"instruction-level operations need the computational model", i, o.Kind))
		return false
	}
}

// finishOp delivers the trace feedback and charges the communication time —
// the tail every comm operation shares in Processor.exec.
func (c *CompactNet) finishOp(i int32, nd *cnode, fb trace.Feedback) {
	if nd.ev.Resume != nil {
		nd.ev.Resume(fb)
	}
	c.commCycles[i] += c.k.Now() - nd.opStart
}

// sendBody runs the post-overhead half of NodeIf.Send. A synchronous send
// parks the node until the rendezvous ack arrives (false); an asynchronous
// send completes in place (true).
func (c *CompactNet) sendBody(i int32, nd *cnode) bool {
	o := &nd.ev.Op
	sync := o.Kind == ops.Send
	msg := &Message{Src: int(i), Dst: int(o.Peer), Size: o.Size, Tag: o.Tag, Payload: nd.ev.Payload, Sync: sync}
	if sync {
		msg.ackFn = nd.ackCont
	}
	c.inject2(msg)
	if sync {
		nd.blockStart = c.k.Now()
		nd.phase = cnSendAcked
		return false
	}
	c.finishOp(i, nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	return true
}

// recvBody runs the post-overhead half of NodeIf.Recv.
func (c *CompactNet) recvBody(i int32, nd *cnode) bool {
	o := &nd.ev.Op
	if m := c.takeArrived(nd, o.Peer, o.Tag); m != nil {
		c.sendAck2(m)
		c.finishOp(i, nd, trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		return true
	}
	f := &cfut{node: i, waiting: true}
	nd.waiters = append(nd.waiters, crecvWait{src: o.Peer, tag: o.Tag, fut: f})
	nd.wait = f
	nd.blockStart = c.k.Now()
	nd.phase = cnRecvGot
	return false
}

// arecvBody runs the post-overhead half of NodeIf.PostRecv; it never blocks.
func (c *CompactNet) arecvBody(i int32, nd *cnode) {
	o := &nd.ev.Op
	if _, dup := nd.handles[o.Addr]; dup {
		panic(fmt.Sprintf("network: node %d reusing arecv handle %d", i, o.Addr))
	}
	if nd.handles == nil {
		nd.handles = make(map[uint64]*cfut)
	}
	f := &cfut{node: i}
	nd.handles[o.Addr] = f
	if m := c.takeArrived(nd, o.Peer, o.Tag); m != nil {
		c.sendAck2(m)
		f.done, f.val = true, m
	} else {
		nd.waiters = append(nd.waiters, crecvWait{src: o.Peer, tag: o.Tag, fut: f})
	}
	c.finishOp(i, nd, trace.Feedback{Peer: o.Peer, Tag: o.Tag})
}

// waitBody is NodeIf.WaitRecv: no receive accounting, no overhead — complete
// in place if the posted receive already matched, else park.
func (c *CompactNet) waitBody(i int32, nd *cnode) bool {
	o := &nd.ev.Op
	f, ok := nd.handles[o.Addr]
	if !ok {
		panic(fmt.Sprintf("network: node %d waiting on unknown arecv handle %d", i, o.Addr))
	}
	delete(nd.handles, o.Addr)
	if f.done {
		c.finishOp(i, nd, trace.Feedback{Peer: int32(f.val.Src), Tag: f.val.Tag, Payload: f.val.Payload})
		return true
	}
	f.waiting = true
	nd.wait = f
	nd.blockStart = c.k.Now()
	nd.phase = cnRecvGot
	return false
}

// takeArrived removes and returns the oldest arrived message matching
// (src, tag), or nil — NodeIf.takeArrived.
func (c *CompactNet) takeArrived(nd *cnode, src int32, tag uint32) *Message {
	for i, m := range nd.arrived {
		if matches(src, tag, m) {
			nd.arrived = append(nd.arrived[:i], nd.arrived[i+1:]...)
			return m
		}
	}
	return nil
}

// arrive2 hands a fully arrived message to the destination node's matching
// state — NodeIf.arrive. Completing a future the node is parked on schedules
// the node's continuation, the one wake pearl.Future.Complete would issue.
func (c *CompactNet) arrive2(m *Message) {
	if m.isAck {
		m.ackFn()
		return
	}
	nd := &c.nodes[m.Dst]
	for i, w := range nd.waiters {
		if matches(w.src, w.tag, m) {
			nd.waiters = append(nd.waiters[:i], nd.waiters[i+1:]...)
			c.sendAck2(m)
			w.fut.done, w.fut.val = true, m
			if w.fut.waiting {
				w.fut.waiting = false
				c.k.After(0, c.nodes[w.fut.node].cont)
			}
			return
		}
	}
	nd.arrived = append(nd.arrived, m)
}

// inject2 launches the transport of msg — Network.inject, with packet
// processes replaced by pooled packet records.
func (c *CompactNet) inject2(msg *Message) {
	msg.injectedAt = c.k.Now()
	if !msg.isAck {
		c.messages.Inc()
		c.bytes.Add(uint64(msg.Size))
	}
	if msg.Src == msg.Dst {
		copyT := pearl.Time((int(msg.Size) + c.cfg.LocalBytesPerCycle - 1) / c.cfg.LocalBytesPerCycle)
		c.k.After(copyT, func() { c.delivered2(msg) })
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

func (c *CompactNet) delivered2(msg *Message) {
	if !msg.isAck {
		c.msgLatency.Observe(int64(c.k.Now() - msg.injectedAt))
	}
	c.arrive2(msg)
}

// sendAck2 issues the rendezvous acknowledgement — Network.sendAck via the
// compact ack continuation instead of a Future.
func (c *CompactNet) sendAck2(msg *Message) {
	if !msg.Sync || msg.ackFn == nil {
		return
	}
	c.acks.Inc()
	ack := &Message{Src: msg.Dst, Dst: msg.Src, Size: uint32(c.cfg.AckBytes), isAck: true, ackFn: msg.ackFn}
	c.inject2(ack)
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
			port = c.adaptivePort2(pk.at, pk.target)
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
		c.k.After(perHop+c.transferTime2(pk.bytes), pk.cont)
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
		c.k.After(c.transferTime2(pk.bytes), func() { c.release(li) })
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
		c.k.After(c.transferTime2(pk.bytes), pk.cont)
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
		c.delivered2(msg)
	}
}

// failAttempt is forward's retransmission loop: back off and retry, or
// abandon the packet after MaxRetries.
func (c *CompactNet) failAttempt(pk *cpkt) {
	pk.attempt++
	rt := c.faults.Retrans()
	if rt.MaxRetries > 0 && pk.attempt > rt.MaxRetries {
		c.lost.Inc()
		c.freePkt(pk)
		return
	}
	c.retransmits.Inc()
	pk.phase = ppRetry
	c.k.After(rt.Delay(pk.attempt), pk.cont)
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

// adaptivePort2 is Network.adaptivePort over the SoA link state.
func (c *CompactNet) adaptivePort2(at, to int) int {
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

func (c *CompactNet) transferTime2(bytes uint32) pearl.Time {
	if cpb := c.cfg.Link.CyclesPerByte; cpb > 0 {
		return pearl.Time(int(bytes) * cpb)
	}
	bpc := c.cfg.Link.BytesPerCycle
	return pearl.Time((int(bytes) + bpc - 1) / bpc)
}

// Nodes returns the node count.
func (c *CompactNet) Nodes() int { return c.topo.Nodes() }

// Topology returns the interconnect.
func (c *CompactNet) Topology() topology.Topology { return c.topo }

// Faults returns the attached fault injector, or nil on a healthy build.
func (c *CompactNet) Faults() *fault.Injector { return c.faults }

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

// MessageLatency returns the distribution of end-to-end message latencies.
func (c *CompactNet) MessageLatency() *stats.Histogram { return &c.msgLatency }

// Messages returns the number of application messages injected.
func (c *CompactNet) Messages() uint64 { return c.messages.Value() }

// Packets returns the number of packets injected.
func (c *CompactNet) Packets() uint64 { return c.packets.Value() }

// Bytes returns the total payload bytes injected.
func (c *CompactNet) Bytes() uint64 { return c.bytes.Value() }

// MeanHops returns the average per-packet hop count observed so far.
func (c *CompactNet) MeanHops() float64 { return c.hopHist.Mean() }

// Retransmits returns how many packet retransmissions the network issued.
func (c *CompactNet) Retransmits() uint64 { return c.retransmits.Value() }

// Lost returns how many packets were abandoned after exhausting retries.
func (c *CompactNet) Lost() uint64 { return c.lost.Value() }

// LinkUtilization returns the mean and maximum utilisation over all links,
// walking the wired channels in the same order as Network.LinkUtilization.
func (c *CompactNet) LinkUtilization() (avg, max float64) {
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

// Stats reports the network's aggregate metrics, identically to
// Network.Stats.
func (c *CompactNet) Stats() *stats.Set {
	s := stats.NewSet("network " + c.topo.Name())
	s.PutUint("messages", c.messages.Value(), "")
	s.PutUint("packets", c.packets.Value(), "")
	s.PutUint("payload bytes", c.bytes.Value(), "B")
	s.PutUint("sync acks", c.acks.Value(), "")
	s.Put("mean msg latency", c.msgLatency.Mean(), "cyc")
	s.PutInt("max msg latency", c.msgLatency.Max(), "cyc")
	s.Put("mean hops", c.hopHist.Mean(), "")
	avg, max := c.LinkUtilization()
	s.Put("avg link utilization", avg, "")
	s.Put("max link utilization", max, "")
	return s
}

// ProcStats reports node i's processor and interface counters, identically
// to Processor.Stats.
func (c *CompactNet) ProcStats(i int) *stats.Set {
	s := stats.NewSet(fmt.Sprintf("proc%d", i))
	s.PutUint("compute tasks", c.taskCount[i].Value(), "")
	s.PutInt("compute cycles", int64(c.computeCycles[i]), "cyc")
	sub := stats.NewSet(fmt.Sprintf("nif%d", i))
	sub.PutUint("sends", c.sends[i].Value(), "")
	sub.PutUint("recvs", c.recvs[i].Value(), "")
	sub.PutInt("send blocked", int64(c.sendBlock[i]), "cyc")
	sub.PutInt("recv blocked", int64(c.recvBlock[i]), "cyc")
	s.Subsets = append(s.Subsets, sub)
	return s
}
