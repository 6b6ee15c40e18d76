// Package network implements the multi-node communication model of the
// workbench (Fig. 3b): per node an abstract processor, a router and
// communication links, connected in a topology reflecting the physical
// interconnect of the multicomputer. Messages are split into packets by the
// router and moved with a configurable switching strategy; synchronous and
// asynchronous message passing are both supported (Table 1).
//
// The model runs on two fabrics: Network, the single-kernel engine every
// machine without shards is built on, and ShardedNetwork, the conservative
// parallel fabric. Both run packets and task-level nodes as plain kernel
// events — no packet or node owns a stack — and each keeps only what it
// runs: its packet walker, its link state and how it delivers. What they
// share is written once. NodeIf is every node's interface: Table 1 matching,
// arecv handles and rendezvous acks, in non-blocking halves. Comm is one
// communication operation over them, a resumable call that detailed CPUs, DSM
// servers and Processor — the abstract processor of a task-level node — make
// from their pearl.Chain step functions. Traffic is the ledger: the validated configuration and topology,
// the traffic counters and histograms, the net.* metric names, the report sets
// and the fault wiring. Whatever fabric a machine was built on, its nodes
// match messages alike and its Traffic reads the same.
package network

import (
	"fmt"
	"sort"
	"strconv"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
)

// LinkConfig parameterises the point-to-point communication links.
type LinkConfig struct {
	// BytesPerCycle is the link bandwidth for fast links. For links slower
	// than one byte per cycle (e.g. transputer links at a 30 MHz core
	// clock), set CyclesPerByte instead; it takes precedence when non-zero.
	BytesPerCycle int
	CyclesPerByte int
	// PropDelay is the signal propagation delay per hop, in cycles.
	PropDelay pearl.Time
}

// Config parameterises the whole communication model.
type Config struct {
	Topology topology.Config
	Router   router.Config
	Link     LinkConfig
	// SendOverhead and RecvOverhead are the software costs charged on the
	// processor for initiating a send or receive (calibrated per machine).
	SendOverhead pearl.Time
	RecvOverhead pearl.Time
	// AckBytes is the size of the acknowledgement that completes a
	// synchronous (rendezvous) send.
	AckBytes int
	// LocalBytesPerCycle is the memory-copy bandwidth for self-sends
	// (src == dst), which never enter the network.
	LocalBytesPerCycle int
	// Seed drives the randomised routing (Valiant intermediate selection).
	Seed uint64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.Link.BytesPerCycle <= 0 && c.Link.CyclesPerByte <= 0 {
		return fmt.Errorf("network: link bandwidth unset")
	}
	if c.Link.PropDelay < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("network: negative delay")
	}
	if c.AckBytes < 0 {
		return fmt.Errorf("network: negative ack size")
	}
	return nil
}

// Message is one application-level message in flight or delivered.
type Message struct {
	Src, Dst int
	Size     uint32
	Tag      uint32
	Payload  any
	Sync     bool

	isAck      bool
	ackFut     *pearl.Future // what a synchronous sender awaits
	remaining  int
	injectedAt pearl.Time
	// key is the message's deterministic identity (src node and per-source
	// injection sequence), assigned by the sharded transport and used to
	// order same-instant interactions canonically. Zero under the
	// single-kernel engine, which needs no such tie-breaking.
	key uint64
}

// Network is the single-kernel communication fabric: struct-of-arrays link
// state, one pooled record per packet in flight and one Processor per node,
// all driven by plain kernel events. A packet's journey is a state machine
// whose every wait — the per-hop hold, a busy channel, the body's drain, a
// retransmission backoff — is one k.After of the packet's bound continuation
// (the order of every event, RNG draw, counter and report byte is pinned by
// TestTrafficDigests).
//
// Instrumentation is carried whole: with a timeline attached every link
// virtual channel gets a track and every channel ownership a "pkt" span; with
// the bottleneck collector attached every channel and router registers its
// busy/wait accounting, and every packet wait reports its block span ("hold",
// "acquire link…") to the collector, as every Processor's chain does its own.
type Network struct {
	Traffic

	deg int
	rng *pearl.RNG // Valiant intermediate draws

	// Directed link state, indexed (node*deg+port)*numVCs+vc. Two virtual
	// channels per directed link: wormhole switching moves to the high
	// channel at topology datelines (Dally–Seitz), which keeps it
	// deadlock-free on rings and tori. Each virtual channel is an
	// independent capacity-1 channel with the full link bandwidth — a slight
	// bandwidth overestimate when both channels of a link are busy at once,
	// in exchange for the deadlock behaviour being exact. Busy flag,
	// busy-cycle integral and last-change time mirror pearl.Resource's
	// accounting; the wait queue holds the packets blocked on the channel and
	// is empty except under contention, so an idle channel costs 17 bytes.
	linkBusy    []uint8
	linkLast    []pearl.Time
	linkBusyCyc []pearl.Time
	linkWait    map[int32][]*packet
	wiredPort   []bool // per (node*deg+port); both VCs share the wiring

	procs []Processor // per node: its interface and abstract processor; never resized

	pktFree *packet // free list: packet records recycle across the run

	// Instrumentation, nil unless attached — the walker pays one nil test.
	// With a timeline: one track per link virtual channel. With the
	// collector (Traffic.col): per-node router occupancy and per-channel
	// acquisitions and queueing time, the rest of pearl.Resource's
	// accounting.
	tl          *probe.Timeline
	linkTracks  []probe.Track
	pktName     probe.Name
	routers     []router.Occupancy
	linkAcq     []uint64
	linkWaitCyc []pearl.Time
	linkReason  pearl.Reason // a packet's wait for channel li is linkReason+li: "acquire link…"
}

// numVCs is the number of virtual channels per directed link.
const numVCs = 2

// New builds the network on env's kernel. The probe registry gets every
// interface's counters, then the traffic ledger's; a timeline gets one track
// per link virtual channel and the collector one resource per channel and per
// router.
func New(env sim.Env, cfg Config) (*Network, error) {
	fab, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	k, pb := env.Kernel, env.Probe
	if k == nil {
		return nil, fmt.Errorf("network: sim.Env without a kernel")
	}
	topo := fab.topo
	n := &Network{
		Traffic: Traffic{fabric: fab, k: k, col: env.Collect},
		deg:     topo.Degree(),
		rng:     pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431),
		tl:      pb.Timeline(),
	}
	n.tr = n
	nodes := topo.Nodes()
	links := nodes * n.deg * numVCs
	n.linkBusy = make([]uint8, links)
	n.linkLast = make([]pearl.Time, links)
	n.linkBusyCyc = make([]pearl.Time, links)
	n.linkWait = make(map[int32][]*packet)
	n.wiredPort = make([]bool, nodes*n.deg)
	if n.tl != nil {
		n.linkTracks = make([]probe.Track, links)
		n.pktName = n.tl.Name("pkt")
	}
	if n.col != nil {
		n.linkAcq = make([]uint64, links)
		n.linkWaitCyc = make([]pearl.Time, links)
		n.linkReason = k.NewReasons("acquire", links, n.linkName)
	}
	for node := 0; node < nodes; node++ {
		for port := 0; port < n.deg; port++ {
			if topo.Neighbor(node, port) < 0 {
				continue
			}
			n.wiredPort[node*n.deg+port] = true
			for vc := 0; vc < numVCs; vc++ {
				n.observeLink((node*n.deg+port)*numVCs + vc)
			}
		}
	}
	n.procs = make([]Processor, nodes)
	reg := pb.Registry()
	for i := range n.procs {
		n.procs[i].NodeIf = NodeIf{led: &n.Traffic, id: i}
		n.procs[i].registerIf(reg, i)
	}
	n.register(reg, n.linkUtilization)
	if n.col != nil {
		n.routers = make([]router.Occupancy, nodes)
		for node := range n.routers {
			o := &n.routers[node]
			n.col.RegisterResource("router", fmt.Sprintf("router.%d", node), 1, func() analysis.ResourceSample {
				return analysis.ResourceSample{Busy: o.Busy(), Acquires: o.Hops()}
			})
		}
	}
	return n, nil
}

// observeLink gives wired channel li its timeline track,
// "net.link<node>.<port>.vc<vc>", and its collector resource, whichever is
// attached.
func (n *Network) observeLink(li int) {
	if n.col == nil && n.tl == nil {
		return
	}
	var buf [48]byte
	name := n.appendLinkID(append(buf[:0], "link."...), li)
	if n.col != nil {
		n.col.RegisterResource("link", string(name), 1, func() analysis.ResourceSample {
			n.accountLink(li)
			return analysis.ResourceSample{Busy: n.linkBusyCyc[li], Wait: n.linkWaitCyc[li], Acquires: n.linkAcq[li]}
		})
	}
	if n.tl != nil {
		n.linkTracks[li] = n.tl.Track("net.link" + string(name[len("link."):]))
	}
}

// linkName names channel li as its collector resource: "link.<node>.<port>.vc<vc>".
func (n *Network) linkName(li int) string { return string(n.appendLinkID([]byte("link."), li)) }

// appendLinkID appends channel li's "<node>.<port>.vc<vc>".
func (n *Network) appendLinkID(buf []byte, li int) []byte {
	port := li / numVCs
	buf = strconv.AppendInt(buf, int64(port/n.deg), 10)
	buf = strconv.AppendInt(append(buf, '.'), int64(port%n.deg), 10)
	return strconv.AppendInt(append(buf, ".vc"...), int64(li%numVCs), 10)
}

// Node returns node i's network interface.
func (n *Network) Node(i int) *NodeIf { return &n.procs[i].NodeIf }

// Processor returns node i's abstract processor, which drives the node from
// a task-level trace once started.
func (n *Network) Processor(i int) *Processor { return &n.procs[i] }

// Packet phases: where a packet's walk resumes when its continuation fires.
const (
	ppStart     uint8 = iota // begin a delivery attempt
	ppGranted                // channel handed over by a releasing packet
	ppAfterHold              // per-hop hold elapsed
	ppDrain                  // body drained at the destination
	ppRetry                  // retransmission backoff elapsed
)

// packet is one packet in flight. Records are recycled through
// Network.pktFree, so a steady-state run allocates no per-packet state.
type packet struct {
	n    *Network
	cont func()  // step, bound once per record
	next *packet // free list

	msg     *Message
	bytes   uint32
	attempt int

	at, target int
	nextWp     int // pending Valiant waypoint (the true dst), -1 if none
	hops       int
	wrapped    uint32 // per-dimension dateline crossings, bitmask
	phase      uint8
	since      pearl.Time // when the current wait began: a hold, or queueing for a channel

	// The hop in progress: channel index just requested, its port and far end.
	pendLi   int
	pendPort int
	pendNext int

	held []heldLink // wormhole: the channels the worm owns
}

// heldLink is one channel a worm owns, and since when.
type heldLink struct {
	li int32
	at pearl.Time
}

// inject launches the transport of msg at the moment it enters the network
// interface.
func (n *Network) inject(msg *Message) {
	n.countInjection(msg, n.k.Now())
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network.
		n.k.After(n.copyTime(msg.Size), func() { n.delivered(msg) })
		return
	}
	pkts := n.cfg.Router.Packetize(msg.Size)
	msg.remaining = len(pkts)
	for _, bytes := range pkts {
		n.packets.Inc()
		pk := n.newPacket(msg, bytes)
		n.k.After(0, pk.cont)
	}
}

// delivered hands a fully arrived message to the destination interface.
func (n *Network) delivered(msg *Message) {
	n.countDelivery(msg, n.k.Now())
	n.procs[msg.Dst].arrive(msg)
}

func (n *Network) newPacket(msg *Message, bytes uint32) *packet {
	pk := n.pktFree
	if pk == nil {
		pk = &packet{n: n}
		pk.cont = pk.step
	} else {
		n.pktFree = pk.next
	}
	pk.msg, pk.bytes = msg, bytes
	pk.attempt = 0
	pk.phase = ppStart
	return pk
}

func (n *Network) freePacket(pk *packet) {
	pk.msg = nil
	pk.held = pk.held[:0]
	pk.next = n.pktFree
	n.pktFree = pk
}

// suspend resumes the packet in phase after d cycles — a hold.
func (pk *packet) suspend(phase uint8, d pearl.Time) {
	pk.phase = phase
	pk.since = pk.n.k.Now()
	pk.n.k.After(d, pk.cont)
}

// step resumes a packet's walk when its continuation fires.
func (pk *packet) step() {
	n := pk.n
	if n.col != nil {
		n.traceWait(pk)
	}
	switch pk.phase {
	case ppStart, ppRetry:
		n.attemptStart(pk)
	case ppGranted:
		n.granted(pk)
	case ppAfterHold:
		n.afterHold(pk)
	case ppDrain:
		n.finishAttempt(pk)
	}
}

// traceWait reports the wait the packet resumes from to the collector.
func (n *Network) traceWait(pk *packet) {
	now := n.k.Now()
	if pk.phase == ppStart || now <= pk.since {
		return
	}
	reason := pearl.ReasonHold
	if pk.phase == ppGranted {
		reason = n.linkReason + pearl.Reason(pk.pendLi)
	}
	n.col.BlockSpan(pk.since, now, reason)
}

// attemptStart begins one delivery attempt from the source. Every fault check
// is a nil test on a healthy build.
func (n *Network) attemptStart(pk *packet) {
	rc := &n.cfg.Router
	pk.hops = 0
	pk.wrapped = 0
	pk.at = pk.msg.Src
	if n.faults != nil && (n.faults.NodeDown(pk.msg.Src) || n.faults.NodeDown(pk.msg.Dst)) {
		// Source interface crashed, or the destination would discard the
		// arrival: the packet goes nowhere this attempt.
		n.faults.CountDrop()
		n.failAttempt(pk)
		return
	}
	// Valiant routing: a random intermediate waypoint precedes the true
	// destination; each leg is routed minimally. Under active faults the
	// re-pathing table overrides it (minimal routing over the live graph).
	pk.target = pk.msg.Dst
	pk.nextWp = -1
	if rc.Routing == router.Valiant && n.table == nil {
		if mid := n.rng.Intn(n.topo.Nodes()); mid != pk.msg.Src && mid != pk.msg.Dst {
			pk.target = mid
			pk.nextWp = pk.msg.Dst
		}
	}
	n.hopLoop(pk)
}

// hopLoop advances the packet hop by hop until it reaches the destination,
// waits for a busy channel or a hop in progress, or the attempt fails.
func (n *Network) hopLoop(pk *packet) {
	rc := &n.cfg.Router
	for pk.at != pk.msg.Dst {
		if pk.at == pk.target && pk.nextWp >= 0 {
			pk.target = pk.nextWp
			pk.nextWp = -1
		}
		var port int
		switch {
		case n.table != nil:
			port = n.table.Port(pk.at, pk.target)
			if port < 0 {
				// The live graph is partitioned right now; retry after the
				// timeout, by which time links may have recovered.
				n.faults.CountDrop()
				n.releaseHeld(pk)
				n.failAttempt(pk)
				return
			}
		case rc.Routing == router.Adaptive:
			port = n.adaptivePort(pk.at, pk.target)
		default:
			port = n.topo.Route(pk.at, pk.target)
		}
		if n.faults != nil && n.faults.LinkDown(pk.at, port) {
			// The table has not been recomputed for a fault landing at this
			// exact instant; the packet is lost at the dead link.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		next := n.topo.Neighbor(pk.at, port)
		vc := 0
		if rc.Switching == router.Wormhole {
			// Dateline virtual-channel selection, per dimension.
			d := n.topo.PortDim(port)
			if n.topo.Dateline(pk.at, port) {
				pk.wrapped |= 1 << d
			}
			if pk.wrapped&(1<<d) != 0 {
				vc = 1
			}
		}
		li := (pk.at*n.deg+port)*numVCs + vc
		pk.pendLi, pk.pendPort, pk.pendNext = li, port, next
		if n.linkBusy[li] == 0 && len(n.linkWait[int32(li)]) == 0 {
			n.accountLink(li)
			n.linkBusy[li]++
			if n.linkAcq != nil {
				n.linkAcq[li]++
			}
			n.granted(pk)
		} else {
			// Strict FIFO: a later arrival never overtakes a waiter.
			pk.phase = ppGranted
			pk.since = n.k.Now()
			n.linkWait[int32(li)] = append(n.linkWait[int32(li)], pk)
		}
		return
	}
	n.arrivedAtDst(pk)
}

// granted owns the channel at pk.pendLi: count the hop and start crossing.
func (n *Network) granted(pk *packet) {
	rc := &n.cfg.Router
	pk.hops++
	if n.routers != nil {
		n.routers[pk.at].Charge(rc.RoutingDelay)
	}
	perHop := rc.RoutingDelay + n.cfg.Link.PropDelay
	switch rc.Switching {
	case router.StoreAndForward:
		// The whole packet crosses before the next hop starts.
		pk.suspend(ppAfterHold, perHop+n.transferTime(pk.bytes))
	case router.VirtualCutThrough:
		// Header advances; the body streams behind and the channel frees
		// once it has drained, wherever the header is by then.
		pk.suspend(ppAfterHold, perHop)
	case router.Wormhole:
		// Channels stay with the worm until delivery.
		pk.held = append(pk.held, heldLink{li: int32(pk.pendLi), at: n.k.Now()})
		pk.suspend(ppAfterHold, perHop)
	}
}

// afterHold finishes the hop in progress: free or schedule freeing the
// channel, run the per-hop fault checks, advance. The timeline span covers
// channel ownership, not queueing: it starts when the hold did.
func (n *Network) afterHold(pk *packet) {
	li := pk.pendLi
	switch n.cfg.Router.Switching {
	case router.StoreAndForward:
		n.release(li)
		if n.tl != nil {
			n.tl.NamedSpan(n.linkTracks[li], n.pktName, pk.since, n.k.Now())
		}
	case router.VirtualCutThrough:
		transfer := n.transferTime(pk.bytes)
		n.k.After(transfer, func() { n.release(li) })
		if n.tl != nil {
			n.tl.NamedSpan(n.linkTracks[li], n.pktName, pk.since, n.k.Now()+transfer)
		}
	}
	if n.faults != nil {
		if n.faults.LinkDown(pk.at, pk.pendPort) {
			// The link failed while the packet was crossing it.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		if n.faults.HopFate(pk.at, pk.pendPort) != fault.OK {
			// Dropped in transit or discarded at the next router's
			// checksum; either way this attempt is over.
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
	}
	pk.at = pk.pendNext
	n.hopLoop(pk)
}

// arrivedAtDst runs the attempt epilogue once the header is at the
// destination: the body drains behind it (except under store-and-forward),
// then the attempt finishes.
func (n *Network) arrivedAtDst(pk *packet) {
	if n.cfg.Router.Switching != router.StoreAndForward {
		pk.suspend(ppDrain, n.transferTime(pk.bytes))
		return
	}
	n.finishAttempt(pk)
}

// finishAttempt ends a successful traversal and delivers the message once its
// last packet is in.
func (n *Network) finishAttempt(pk *packet) {
	n.releaseHeld(pk)
	if n.faults != nil && n.faults.NodeDown(pk.msg.Dst) {
		// The destination crashed while the packet was in flight.
		n.faults.CountDrop()
		n.failAttempt(pk)
		return
	}
	n.hopHist.Observe(int64(pk.hops))
	msg := pk.msg
	n.freePacket(pk)
	msg.remaining--
	if msg.remaining == 0 {
		n.delivered(msg)
	}
}

// failAttempt handles a lost attempt. The source learns of the loss through
// its retransmission timer (corruptions are discarded at the receiver, so
// recovery timing is the same) and resends after the timeout, backing off
// exponentially per attempt — or abandons the packet after MaxRetries.
func (n *Network) failAttempt(pk *packet) {
	pk.attempt++
	delay, ok := n.retry(pk.attempt)
	if !ok {
		n.freePacket(pk)
		return
	}
	pk.suspend(ppRetry, delay)
}

// releaseHeld frees a worm's channels when an attempt ends, successfully or
// not; the spans cover the time the channels were actually owned.
func (n *Network) releaseHeld(pk *packet) {
	for _, h := range pk.held {
		n.release(int(h.li))
		if n.tl != nil {
			n.tl.NamedSpan(n.linkTracks[h.li], n.pktName, h.at, n.k.Now())
		}
	}
	pk.held = pk.held[:0]
}

// accountLink folds the elapsed occupancy of channel li into its busy
// integral.
func (n *Network) accountLink(li int) {
	now := n.k.Now()
	n.linkBusyCyc[li] += pearl.Time(n.linkBusy[li]) * (now - n.linkLast[li])
	n.linkLast[li] = now
}

// release frees channel li and, like pearl.Resource.Release, transfers it
// directly to the head waiter, waking it with a single event.
func (n *Network) release(li int) {
	n.accountLink(li)
	n.linkBusy[li]--
	q := n.linkWait[int32(li)]
	if len(q) == 0 {
		return
	}
	pk := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	if q = q[:len(q)-1]; len(q) == 0 {
		delete(n.linkWait, int32(li))
	} else {
		n.linkWait[int32(li)] = q
	}
	n.linkBusy[li]++
	if n.linkAcq != nil {
		n.linkAcq[li]++
		n.linkWaitCyc[li] += n.k.Now() - pk.since
	}
	n.k.After(0, pk.cont)
}

// adaptivePort picks, among the minimal output ports, the one whose channel
// is least loaded right now (holder plus queued packets; ties go to the
// lowest port, keeping the choice deterministic).
func (n *Network) adaptivePort(at, to int) int {
	ports := n.topo.MinimalPorts(at, to)
	best := ports[0]
	bestLoad := 1 << 30
	for _, p := range ports {
		li := (at*n.deg + p) * numVCs
		load := int(n.linkBusy[li]) + len(n.linkWait[int32(li)])
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// Blocked describes the packets queued on channels, for deadlock reports, in
// the "what (reason)" style of the other waiting components.
func (n *Network) Blocked() []string {
	lis := make([]int, 0, len(n.linkWait))
	for li := range n.linkWait {
		lis = append(lis, int(li))
	}
	sort.Ints(lis)
	out := make([]string, 0, len(lis))
	for _, li := range lis {
		out = append(out, fmt.Sprintf("%d pkt (acquire %s)", len(n.linkWait[int32(li)]), n.linkName(li)))
	}
	return out
}

// linkUtilization returns the mean and maximum utilisation over all wired
// channels.
func (n *Network) linkUtilization() (avg, max float64) {
	now := n.k.Now()
	count := 0
	for li := range n.linkBusy {
		if !n.wiredPort[li/numVCs] {
			continue
		}
		var u float64
		if now > 0 {
			n.accountLink(li)
			u = float64(n.linkBusyCyc[li]) / float64(now)
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
