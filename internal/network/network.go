// Package network implements the multi-node communication model of the
// workbench (Fig. 3b): per node an abstract processor, a router and
// communication links, connected in a topology reflecting the physical
// interconnect of the multicomputer. Messages are split into packets by the
// router and moved with a configurable switching strategy; synchronous and
// asynchronous message passing are both supported (Table 1).
//
// The model runs on two fabrics: Network, the single-kernel engine every
// machine without shards is built on, and ShardedNetwork, the conservative
// parallel fabric of unobserved, fault-free task-level machines. Both run packets and task-level nodes as plain kernel
// events — no packet or node owns a stack — and each keeps only what it
// runs: its packet walker, its link state and how it delivers. What they
// share is written once. NodeIf is every node's interface: Table 1 matching,
// arecv handles and rendezvous acks, in non-blocking halves. Comm is one
// communication operation over them, a resumable call that detailed CPUs, DSM
// servers and Processor — the abstract processor of a task-level node — make
// from their pearl.Chain step functions. Traffic is the ledger: the validated
// configuration and topology, the traffic counters and histograms, the report
// sets and the fault wiring. Whatever fabric a machine was built on, its
// nodes match messages alike and its Traffic reads the same.
package network

import (
	"fmt"
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
	// (src == dst), which never enter the network. Zero means 8, which
	// Validate writes in its place.
	LocalBytesPerCycle int
	// Seed drives the randomised routing (Valiant intermediate selection).
	Seed uint64
}

// Validate checks the configuration and fills the default of a zero
// LocalBytesPerCycle.
func (c *Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.Link.BytesPerCycle < 0 || c.Link.CyclesPerByte < 0 {
		return fmt.Errorf("network: negative link rate (BytesPerCycle %d, CyclesPerByte %d)", c.Link.BytesPerCycle, c.Link.CyclesPerByte)
	}
	if c.Link.BytesPerCycle == 0 && c.Link.CyclesPerByte == 0 {
		return fmt.Errorf("network: link bandwidth unset")
	}
	if c.Link.PropDelay < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("network: negative delay")
	}
	if c.AckBytes < 0 {
		return fmt.Errorf("network: negative ack size")
	}
	switch {
	case c.LocalBytesPerCycle < 0:
		return fmt.Errorf("network: negative LocalBytesPerCycle %d", c.LocalBytesPerCycle)
	case c.LocalBytesPerCycle == 0:
		c.LocalBytesPerCycle = 8
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

// Network is the single-kernel communication fabric: one pointer-free record
// per link virtual channel, a slab of packet records and one Processor per
// node, all driven by plain kernel events. A packet's journey is a state
// machine whose every wait — the per-hop hold, a busy channel, the body's
// drain, a retransmission backoff — is one k.After of the packet's bound
// continuation (the order of every event, RNG draw, counter and report byte
// is pinned by TestTrafficDigests). In steady state the walker allocates
// nothing: waiters queue through the packets, a worm's channels chain
// through the channel records, and packet records recycle through the slab.
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
	// in exchange for the deadlock behaviour being exact.
	chans     []vchan
	wiredPort []bool // per (node*deg+port); both VCs share the wiring

	procs []Processor // per node: its interface and abstract processor; never resized

	// Packet records live in chunks of pktChunk and are named by slab index;
	// index 0 is never handed out, so 0 means "no packet". Freed records
	// chain through packet.next from pktFree.
	pkts    [][]packet
	pktFree int32
	pktLen  int32 // indices handed out so far, 0 included

	// Instrumentation, nil unless attached — the walker pays one nil test.
	// With a timeline: one track per link virtual channel, and when its worm
	// took each channel. With the collector (Traffic.col): per-node router
	// occupancy and per-channel acquisitions and queueing time, the rest of
	// pearl.Resource's accounting.
	tl          *probe.Timeline
	linkTracks  []probe.Track
	heldAt      []pearl.Time
	pktName     probe.Name
	routers     []router.Occupancy
	linkAcq     []uint64
	linkWaitCyc []pearl.Time
	linkReason  pearl.Reason // a packet's wait for channel li is linkReason+li: "acquire link…"
}

// vchan is one virtual channel: the busy integral of pearl.Resource's
// accounting for a capacity-1 channel, the FIFO of packets waiting for it
// and, while a worm holds it, the next channel that worm took. It holds no
// pointer — packets are slab indices — so the collector never scans the
// channel array, and it takes 32 bytes.
type vchan struct {
	last    pearl.Time // when the busy state last changed
	busyCyc pearl.Time // busy cycles up to last
	// The waiting packets, oldest first, chained through packet.next; 0
	// when none wait.
	head, tail int32
	// load is the holder plus the waiting packets: the channel is busy
	// when load > 0, and load-1 packets wait.
	load int32
	// nextHeld is the channel the holding worm took after this one; the
	// worm's packet knows its first and last.
	nextHeld int32
}

// numVCs is the number of virtual channels per directed link.
const numVCs = 2

// New builds the network on env's kernel. A timeline gets one track per link
// virtual channel and the collector one resource per channel and per router.
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
		pktLen:  1, // slab index 0 stays unused
		tl:      pb.Timeline(),
	}
	n.tr = n
	nodes := topo.Nodes()
	links := nodes * n.deg * numVCs
	n.chans = make([]vchan, links)
	n.wiredPort = make([]bool, nodes*n.deg)
	if n.tl != nil {
		n.linkTracks = make([]probe.Track, links)
		n.heldAt = make([]pearl.Time, links)
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
	for i := range n.procs {
		n.procs[i].NodeIf = NodeIf{led: &n.Traffic, id: i}
	}
	n.util = n.linkUtilization
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
			return analysis.ResourceSample{Busy: n.chans[li].busyCyc, Wait: n.linkWaitCyc[li], Acquires: n.linkAcq[li]}
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

// packet is one packet in flight, a record of the Network's slab: records
// recycle across the run, so a steady-state run allocates no per-packet
// state.
type packet struct {
	n    *Network
	cont func() // step, bound once per record
	msg  *Message

	id    int32 // slab index
	next  int32 // the packet queued behind this one, or the next free record
	bytes uint32

	attempt    int32
	at, target int32
	nextWp     int32 // pending Valiant waypoint (the true dst), -1 if none
	hops       int32
	wrapped    uint32 // per-dimension dateline crossings, bitmask
	phase      uint8
	since      pearl.Time // when the current wait began: a hold, or queueing for a channel

	// The hop in progress: channel index just requested, its port and far end.
	pendLi   int32
	pendPort int32
	pendNext int32

	// Wormhole: the first and the last channel the worm owns, -1 when it
	// owns none; the rest chain through vchan.nextHeld in acquisition order.
	heldFirst, heldLast int32
}

// pktChunk is the number of packet records per slab chunk.
const pktChunk = 256

// inject launches the transport of msg at the moment it enters the network
// interface.
func (n *Network) inject(msg *Message) {
	n.countInjection(msg, n.k.Now())
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network.
		n.k.After(n.copyTime(msg.Size), func() { n.delivered(msg) })
		return
	}
	rc := &n.cfg.Router
	msg.remaining = rc.NumPackets(msg.Size)
	for i := 0; i < msg.remaining; i++ {
		n.packets.Inc()
		pk := n.newPacket(msg, rc.PacketBytes(msg.Size, i))
		n.k.After(0, pk.cont)
	}
}

// delivered hands a fully arrived message to the destination interface.
func (n *Network) delivered(msg *Message) {
	n.countDelivery(msg, n.k.Now())
	n.procs[msg.Dst].arrive(msg)
}

// pkt returns the packet record at slab index id.
func (n *Network) pkt(id int32) *packet { return &n.pkts[id/pktChunk][id%pktChunk] }

func (n *Network) newPacket(msg *Message, bytes uint32) *packet {
	var pk *packet
	if id := n.pktFree; id != 0 {
		pk = n.pkt(id)
		n.pktFree = pk.next
	} else {
		id := n.pktLen
		if int(id/pktChunk) == len(n.pkts) {
			n.pkts = append(n.pkts, make([]packet, pktChunk))
		}
		n.pktLen++
		pk = n.pkt(id)
		pk.n, pk.id = n, id
		pk.cont = pk.step
	}
	pk.msg, pk.bytes = msg, bytes
	pk.attempt = 0
	pk.phase = ppStart
	pk.heldFirst = -1
	return pk
}

func (n *Network) freePacket(pk *packet) {
	pk.msg = nil
	pk.next = n.pktFree
	n.pktFree = pk.id
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
	pk.at = int32(pk.msg.Src)
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
	pk.target = int32(pk.msg.Dst)
	pk.nextWp = -1
	if rc.Routing == router.Valiant && n.table == nil {
		if mid := n.rng.Intn(n.topo.Nodes()); mid != pk.msg.Src && mid != pk.msg.Dst {
			pk.target = int32(mid)
			pk.nextWp = int32(pk.msg.Dst)
		}
	}
	n.hopLoop(pk)
}

// hopLoop advances the packet hop by hop until it reaches the destination,
// waits for a busy channel or a hop in progress, or the attempt fails.
func (n *Network) hopLoop(pk *packet) {
	rc := &n.cfg.Router
	dst := int32(pk.msg.Dst)
	for pk.at != dst {
		if pk.at == pk.target && pk.nextWp >= 0 {
			pk.target = pk.nextWp
			pk.nextWp = -1
		}
		at := int(pk.at)
		var port int
		switch {
		case n.table != nil:
			port = n.table.Port(at, int(pk.target))
			if port < 0 {
				// The live graph is partitioned right now; retry after the
				// timeout, by which time links may have recovered.
				n.faults.CountDrop()
				n.releaseHeld(pk)
				n.failAttempt(pk)
				return
			}
		case rc.Routing == router.Adaptive:
			port = n.adaptivePort(at, int(pk.target))
		default:
			port = n.topo.Route(at, int(pk.target))
		}
		if n.faults != nil && n.faults.LinkDown(at, port) {
			// The table has not been recomputed for a fault landing at this
			// exact instant; the packet is lost at the dead link.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		next := n.topo.Neighbor(at, port)
		vc := 0
		if rc.Switching == router.Wormhole {
			// Dateline virtual-channel selection, per dimension.
			d := n.topo.PortDim(port)
			if n.topo.Dateline(at, port) {
				pk.wrapped |= 1 << d
			}
			if pk.wrapped&(1<<d) != 0 {
				vc = 1
			}
		}
		li := (at*n.deg+port)*numVCs + vc
		pk.pendLi, pk.pendPort, pk.pendNext = int32(li), int32(port), int32(next)
		c := &n.chans[li]
		if c.load == 0 {
			n.accountLink(li)
			c.load = 1
			if n.linkAcq != nil {
				n.linkAcq[li]++
			}
			n.granted(pk)
		} else {
			// Strict FIFO: a later arrival never overtakes a waiter.
			c.load++
			pk.phase = ppGranted
			pk.since = n.k.Now()
			pk.next = 0
			if c.tail == 0 {
				c.head = pk.id
			} else {
				n.pkt(c.tail).next = pk.id
			}
			c.tail = pk.id
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
		li := pk.pendLi
		if pk.heldFirst < 0 {
			pk.heldFirst = li
		} else {
			n.chans[pk.heldLast].nextHeld = li
		}
		pk.heldLast = li
		if n.heldAt != nil {
			n.heldAt[li] = n.k.Now()
		}
		pk.suspend(ppAfterHold, perHop)
	}
}

// afterHold finishes the hop in progress: free or schedule freeing the
// channel, run the per-hop fault checks, advance. The timeline span covers
// channel ownership, not queueing: it starts when the hold did.
func (n *Network) afterHold(pk *packet) {
	li := int(pk.pendLi)
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
		at, port := int(pk.at), int(pk.pendPort)
		if n.faults.LinkDown(at, port) {
			// The link failed while the packet was crossing it.
			n.faults.CountDrop()
			n.releaseHeld(pk)
			n.failAttempt(pk)
			return
		}
		if n.faults.HopFate(at, port) != fault.OK {
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
	delay, ok := n.retry(int(pk.attempt))
	if !ok {
		n.freePacket(pk)
		return
	}
	pk.suspend(ppRetry, delay)
}

// releaseHeld frees a worm's channels in the order it took them when an
// attempt ends, successfully or not; the spans cover the time the channels
// were actually owned.
func (n *Network) releaseHeld(pk *packet) {
	if pk.heldFirst < 0 {
		return
	}
	for li := pk.heldFirst; ; {
		next := n.chans[li].nextHeld
		n.release(int(li))
		if n.tl != nil {
			n.tl.NamedSpan(n.linkTracks[li], n.pktName, n.heldAt[li], n.k.Now())
		}
		if li == pk.heldLast {
			break
		}
		li = next
	}
	pk.heldFirst = -1
}

// accountLink folds the elapsed occupancy of channel li into its busy
// integral.
func (n *Network) accountLink(li int) {
	c := &n.chans[li]
	now := n.k.Now()
	if c.load > 0 {
		c.busyCyc += now - c.last
	}
	c.last = now
}

// release frees channel li and, like pearl.Resource.Release, transfers it
// directly to the head waiter, waking it with a single event.
func (n *Network) release(li int) {
	n.accountLink(li)
	c := &n.chans[li]
	c.load--
	if c.head == 0 {
		return
	}
	pk := n.pkt(c.head)
	if c.head = pk.next; c.head == 0 {
		c.tail = 0
	}
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
	bestLoad := int32(1 << 30)
	for _, p := range ports {
		if load := n.chans[(at*n.deg+p)*numVCs].load; load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// Blocked describes the packets queued on channels, for deadlock reports, in
// the "what (reason)" style of the other waiting components, channels in
// index order.
func (n *Network) Blocked() []string {
	var out []string
	for li := range n.chans {
		if queued := n.chans[li].load - 1; queued > 0 {
			out = append(out, fmt.Sprintf("%d pkt (acquire %s)", queued, n.linkName(li)))
		}
	}
	return out
}

// linkUtilization returns the mean and maximum utilisation over all wired
// channels.
func (n *Network) linkUtilization() (avg, max float64) {
	now := n.k.Now()
	count := 0
	for li := range n.chans {
		if !n.wiredPort[li/numVCs] {
			continue
		}
		var u float64
		if now > 0 {
			n.accountLink(li)
			u = float64(n.chans[li].busyCyc) / float64(now)
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
