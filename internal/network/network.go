// Package network implements the multi-node communication model of the
// workbench (Fig. 3b): per node an abstract processor, a router and
// communication links, connected in a topology reflecting the physical
// interconnect of the multicomputer. Messages are split into packets by the
// router and moved with a configurable switching strategy; synchronous and
// asynchronous message passing are both supported (Table 1).
//
// The model runs on three engines: Network (one process per packet, the
// fully instrumentable reference), CompactNet (the same model as plain
// events over struct-of-arrays state) and ShardedNetwork (the conservative
// parallel fabric). Each keeps only what it runs — its packet walker, its
// link state, how it delivers, and on CompactNet the per-node driver that
// replaces Processor. What they share is written once. NodeIf is every
// node's interface on every engine: Table 1 matching, arecv handles and
// rendezvous acks. Traffic is the ledger: the validated configuration and
// topology, the traffic counters and histograms, the net.* metric names, the
// report sets and the fault wiring. Whatever engine a machine was built on,
// its nodes match messages alike and its Traffic reads the same.
package network

import (
	"fmt"

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
	ackFut     *pearl.Future // what the sender awaits; nil on the compact engine
	remaining  int
	injectedAt pearl.Time
	// key is the message's deterministic identity (src node and per-source
	// injection sequence), assigned by the sharded transport and used to
	// order same-instant interactions canonically. Zero under the
	// single-kernel engine, which needs no such tie-breaking.
	key uint64
}

// Network is the assembled communication fabric plus per-node interfaces.
type Network struct {
	Traffic

	links []*pearl.Resource // directed, indexed node*degree+port
	ifs   []*NodeIf
	rng   *pearl.RNG // Valiant intermediate draws

	// Timeline instrumentation (nil when no probe is attached): one track
	// per directed link virtual channel, parallel to links.
	tl         *probe.Timeline
	linkTracks []probe.Track

	// Per-node router busy accounting for the bottleneck analysis (nil when
	// no collector is attached — the hot path pays one nil test per hop).
	routers []router.Occupancy
}

// New builds the network on env's kernel. With a probe attached the network
// registers its traffic counters and emits one "pkt" span per packet and
// link hop.
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
	n := &Network{Traffic: Traffic{fabric: fab, k: k}, rng: pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431)}
	n.tr = n
	// Two virtual channels per directed link: wormhole switching moves to
	// the high channel at topology datelines (Dally–Seitz), which keeps it
	// deadlock-free on rings and tori. Each virtual channel is modelled as
	// an independent sub-channel with the full link bandwidth — a slight
	// bandwidth overestimate when both channels of a link are busy at once,
	// in exchange for the deadlock behaviour being exact.
	deg := topo.Degree()
	tl := pb.Timeline()
	if tl != nil {
		n.tl = tl
		n.linkTracks = make([]probe.Track, topo.Nodes()*deg*numVCs)
	}
	n.links = make([]*pearl.Resource, topo.Nodes()*deg*numVCs)
	for node := 0; node < topo.Nodes(); node++ {
		for port := 0; port < deg; port++ {
			if topo.Neighbor(node, port) < 0 {
				continue
			}
			for vc := 0; vc < numVCs; vc++ {
				idx := (node*deg+port)*numVCs + vc
				n.links[idx] = k.NewResource(fmt.Sprintf("link.%d.%d.vc%d", node, port, vc), 1)
				env.Collect.Resource("link", n.links[idx])
				if tl != nil {
					n.linkTracks[idx] = tl.Track(fmt.Sprintf("net.link%d.%d.vc%d", node, port, vc))
				}
			}
		}
	}
	n.ifs = make([]*NodeIf, topo.Nodes())
	reg := pb.Registry()
	for i := range n.ifs {
		n.ifs[i] = &NodeIf{led: &n.Traffic, id: i}
		n.ifs[i].registerIf(reg, i)
	}
	n.register(reg, n.linkUtilization)
	if col := env.Collect; col.Enabled() {
		n.routers = make([]router.Occupancy, topo.Nodes())
		for node := 0; node < topo.Nodes(); node++ {
			o := &n.routers[node]
			col.RegisterResource("router", fmt.Sprintf("router.%d", node), 1, func() analysis.ResourceSample {
				return analysis.ResourceSample{Busy: o.Busy(), Acquires: o.Hops()}
			})
		}
	}
	return n, nil
}

// Node returns node i's network interface.
func (n *Network) Node(i int) *NodeIf { return n.ifs[i] }

// numVCs is the number of virtual channels per directed link.
const numVCs = 2

func (n *Network) link(node, port, vc int) *pearl.Resource {
	return n.links[(node*n.topo.Degree()+port)*numVCs+vc]
}

// inject launches the transport of msg. Called in the sender's process
// context at the moment the message enters the network interface.
func (n *Network) inject(msg *Message) {
	n.countInjection(msg, n.k.Now())
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network.
		n.k.After(n.copyTime(msg.Size), func() { n.delivered(msg) })
		return
	}
	pkts := n.cfg.Router.Packetize(msg.Size)
	msg.remaining = len(pkts)
	for i, pkt := range pkts {
		pkt := pkt
		n.packets.Inc()
		// Named on demand: only the deadlock report reads a packet's name.
		n.k.Spawn("pkt", func(p *pearl.Process) {
			n.forward(p, msg, pkt)
		}).NameFunc = func() string { return fmt.Sprintf("pkt.%d->%d.%d", msg.Src, msg.Dst, i) }
	}
}

// forward carries one packet from msg.Src to msg.Dst, retransmitting after
// a backed-off timeout whenever the fault subsystem loses an attempt. It
// runs as its own simulation process. On a healthy build (no injector) the
// single attempt is exactly the pre-fault transport.
func (n *Network) forward(p *pearl.Process, msg *Message, pktBytes uint32) {
	attempt := 0
	for !n.attemptForward(p, msg, pktBytes) {
		// The packet was lost. The source learns of it through its
		// retransmission timer (corruptions are discarded at the receiver,
		// so recovery timing is the same) and resends after the timeout,
		// backing off exponentially per attempt.
		attempt++
		delay, ok := n.retry(attempt)
		if !ok {
			return
		}
		p.Hold(delay)
	}
	msg.remaining--
	if msg.remaining == 0 {
		n.delivered(msg)
	}
}

// attemptForward tries to carry one packet from msg.Src to msg.Dst through
// the configured switching strategy, reporting whether it arrived intact.
// Every fault check is a nil test on a healthy build.
func (n *Network) attemptForward(p *pearl.Process, msg *Message, pktBytes uint32) bool {
	rc := &n.cfg.Router
	transfer := n.transferTime(pktBytes)
	perHop := rc.RoutingDelay + n.cfg.Link.PropDelay
	var held []*pearl.Resource
	var heldStarts []pearl.Time  // per held channel, acquisition time
	var heldTracks []probe.Track // per held channel, its timeline track
	// releaseHeld frees a worm's channels when an attempt ends, successfully
	// or not; the spans cover the time the channels were actually owned.
	releaseHeld := func() {
		for i, l := range held {
			l.Release()
			if n.tl != nil {
				n.tl.Span(heldTracks[i], "pkt", heldStarts[i], p.Now())
			}
		}
		held = held[:0]
	}
	wrapped := make([]bool, n.topo.Dims())
	hops := 0
	at := msg.Src
	if n.faults != nil && (n.faults.NodeDown(msg.Src) || n.faults.NodeDown(msg.Dst)) {
		// Source interface crashed, or the destination would discard the
		// arrival: the packet goes nowhere this attempt.
		n.faults.CountDrop()
		return false
	}
	// Valiant routing: a random intermediate waypoint precedes the true
	// destination; each leg is routed minimally. Under active faults the
	// re-pathing table overrides it (minimal routing over the live graph).
	waypoints := []int{msg.Dst}
	if rc.Routing == router.Valiant && n.table == nil {
		if mid := n.rng.Intn(n.topo.Nodes()); mid != msg.Src && mid != msg.Dst {
			waypoints = []int{mid, msg.Dst}
		}
	}
	target := waypoints[0]
	waypoints = waypoints[1:]
	for at != msg.Dst {
		if at == target && len(waypoints) > 0 {
			target = waypoints[0]
			waypoints = waypoints[1:]
		}
		var port int
		switch {
		case n.table != nil:
			port = n.table.Port(at, target)
			if port < 0 {
				// The live graph is partitioned right now; retry after the
				// timeout, by which time links may have recovered.
				n.faults.CountDrop()
				releaseHeld()
				return false
			}
		case rc.Routing == router.Adaptive:
			port = n.adaptivePort(at, target)
		default:
			port = n.topo.Route(at, target)
		}
		if n.faults != nil && n.faults.LinkDown(at, port) {
			// The table has not been recomputed for a fault landing at this
			// exact instant; the packet is lost at the dead link.
			n.faults.CountDrop()
			releaseHeld()
			return false
		}
		next := n.topo.Neighbor(at, port)
		vc := 0
		if rc.Switching == router.Wormhole {
			// Dateline virtual-channel selection, per dimension.
			d := n.topo.PortDim(port)
			if n.topo.Dateline(at, port) {
				wrapped[d] = true
			}
			if wrapped[d] {
				vc = 1
			}
		}
		li := (at*n.topo.Degree()+port)*numVCs + vc
		link := n.links[li]
		p.Acquire(link)
		hops++
		if n.routers != nil {
			n.routers[at].Charge(rc.RoutingDelay)
		}
		var start pearl.Time
		if n.tl != nil {
			start = p.Now() // span covers channel ownership, not queueing
		}
		switch rc.Switching {
		case router.StoreAndForward:
			// The whole packet crosses before the next hop starts.
			p.Hold(perHop + transfer)
			link.Release()
			if n.tl != nil {
				n.tl.Span(n.linkTracks[li], "pkt", start, p.Now())
			}
		case router.VirtualCutThrough:
			// Header advances; the body streams behind and the channel frees
			// once it has drained, wherever the header is by then.
			p.Hold(perHop)
			n.k.After(transfer, link.Release)
			if n.tl != nil {
				n.tl.Span(n.linkTracks[li], "pkt", start, p.Now()+transfer)
			}
		case router.Wormhole:
			// Channels stay with the worm until delivery.
			held = append(held, link)
			if n.tl != nil {
				heldStarts = append(heldStarts, start)
				heldTracks = append(heldTracks, n.linkTracks[li])
			}
			p.Hold(perHop)
		}
		if n.faults != nil {
			if n.faults.LinkDown(at, port) {
				// The link failed while the packet was crossing it.
				n.faults.CountDrop()
				releaseHeld()
				return false
			}
			if n.faults.HopFate(at, port) != fault.OK {
				// Dropped in transit or discarded at the next router's
				// checksum; either way this attempt is over.
				releaseHeld()
				return false
			}
		}
		at = next
	}
	if rc.Switching != router.StoreAndForward {
		p.Hold(transfer) // body drains at the destination
	}
	releaseHeld()
	if n.faults != nil && n.faults.NodeDown(msg.Dst) {
		// The destination crashed while the packet was in flight.
		n.faults.CountDrop()
		return false
	}
	n.hopHist.Observe(int64(hops))
	return true
}

// adaptivePort picks, among the minimal output ports, the one whose channel
// is least loaded right now (holders plus queued packets; ties go to the
// lowest port, keeping the choice deterministic).
func (n *Network) adaptivePort(at, to int) int {
	ports := n.topo.MinimalPorts(at, to)
	best := ports[0]
	bestLoad := 1 << 30
	for _, p := range ports {
		l := n.link(at, p, 0)
		load := l.InUse() + l.QueueLen()
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// delivered hands a fully arrived message to the destination interface.
func (n *Network) delivered(msg *Message) {
	n.countDelivery(msg, n.k.Now())
	n.ifs[msg.Dst].arrive(msg)
}

// linkUtilization returns the mean and maximum utilisation over all links.
func (n *Network) linkUtilization() (avg, max float64) {
	count := 0
	for _, l := range n.links {
		if l == nil {
			continue
		}
		u := l.Utilization()
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
