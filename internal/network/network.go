// Package network implements the multi-node communication model of the
// workbench (Fig. 3b): per node an abstract processor, a router and
// communication links, connected in a topology reflecting the physical
// interconnect of the multicomputer. Messages are split into packets by the
// router and moved with a configurable switching strategy; synchronous and
// asynchronous message passing are both supported (Table 1).
package network

import (
	"fmt"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
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
	ackFut     *pearl.Future
	ackFn      func() // compact-engine ack completion (see compact.go)
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
	k    *pearl.Kernel
	cfg  Config
	topo topology.Topology

	links []*pearl.Resource // directed, indexed node*degree+port
	ifs   []*NodeIf
	rng   *pearl.RNG // Valiant intermediate draws

	msgLatency stats.Histogram
	hopHist    stats.Histogram
	messages   stats.Counter
	packets    stats.Counter
	bytes      stats.Counter
	acks       stats.Counter

	// Fault-injection state (all nil/zero on a healthy build — the hot path
	// pays one nil test): the injector supplies link/node liveness and packet
	// fates, the table re-paths around dead links, and the counters account
	// the recovery traffic.
	faults      *fault.Injector
	table       *router.LazyTable
	retransmits stats.Counter
	lost        stats.Counter
	repaths     stats.Counter

	// Timeline instrumentation (nil when no probe is attached): one track
	// per directed link virtual channel, parallel to links.
	tl         *probe.Timeline
	linkTracks []probe.Track
	reg        *probe.Registry

	// Per-node router busy accounting for the bottleneck analysis (nil when
	// no collector is attached — the hot path pays one nil test per hop).
	routers []router.Occupancy
}

// New builds the network on env's kernel. With a probe attached the network
// registers its traffic counters and emits one "pkt" span per packet and
// link hop.
func New(env sim.Env, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, pb := env.Kernel, env.Probe
	if k == nil {
		return nil, fmt.Errorf("network: sim.Env without a kernel")
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.LocalBytesPerCycle <= 0 {
		cfg.LocalBytesPerCycle = 8
	}
	n := &Network{k: k, cfg: cfg, topo: topo, rng: pearl.NewRNG(cfg.Seed ^ 0x6d65726d61696431)}
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
		n.ifs[i] = &NodeIf{tr: n, k: k, id: i, handles: make(map[uint64]*pearl.Future)}
		reg.Counter(fmt.Sprintf("net.nif%d.sends", i), &n.ifs[i].sends)
		reg.Counter(fmt.Sprintf("net.nif%d.recvs", i), &n.ifs[i].recvs)
	}
	reg.Counter("net.messages", &n.messages)
	reg.Counter("net.packets", &n.packets)
	reg.Counter("net.bytes", &n.bytes)
	reg.Counter("net.acks", &n.acks)
	reg.Gauge("net.latency.mean", "cyc", n.msgLatency.Mean)
	reg.Gauge("net.hops.mean", "", n.hopHist.Mean)
	reg.Gauge("net.link-utilization.avg", "", func() float64 { avg, _ := n.LinkUtilization(); return avg })
	n.reg = reg
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

// AttachFaults activates the fault-injection subsystem on this network: the
// injector's schedule governs link/node liveness and packet noise, routing
// switches to a re-pathing table recomputed on every topology-change event,
// and lost packets are recovered by retransmission with exponential backoff.
// Attaching nil is a no-op; must be called before the simulation runs.
//
// While faults are attached, path selection is always table-based minimal
// routing over the live graph: the Valiant and Adaptive strategies assume a
// static topology and are overridden (see DESIGN.md, "Fault model").
func (n *Network) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	n.faults = inj
	n.reg.Counter("net.retransmits", &n.retransmits)
	n.reg.Counter("net.lost", &n.lost)
	n.reg.Counter("net.repaths", &n.repaths)
	// Per-destination rows are computed on first use and dropped on every
	// topology-change event, so the fault-affected cut is the only part of
	// the O(N²) table a run ever pays for.
	n.table = router.NewLazyTable(n.topo, inj.Alive)
	inj.OnChange(func() {
		n.table.Invalidate()
		n.repaths.Inc()
	})
}

// Faults returns the attached fault injector, or nil on a healthy build.
func (n *Network) Faults() *fault.Injector { return n.faults }

// Retransmits returns how many packet retransmissions the network issued.
func (n *Network) Retransmits() uint64 { return n.retransmits.Value() }

// Lost returns how many packets were abandoned after exhausting retries.
func (n *Network) Lost() uint64 { return n.lost.Value() }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Topology returns the interconnect.
func (n *Network) Topology() topology.Topology { return n.topo }

// Node returns node i's network interface.
func (n *Network) Node(i int) *NodeIf { return n.ifs[i] }

// numVCs is the number of virtual channels per directed link.
const numVCs = 2

// transport implementation (see nodeif.go).
func (n *Network) nodeCount() int  { return n.topo.Nodes() }
func (n *Network) config() *Config { return &n.cfg }

func (n *Network) link(node, port, vc int) *pearl.Resource {
	return n.links[(node*n.topo.Degree()+port)*numVCs+vc]
}

func (n *Network) transferTime(bytes uint32) pearl.Time {
	if cpb := n.cfg.Link.CyclesPerByte; cpb > 0 {
		return pearl.Time(int(bytes) * cpb)
	}
	bpc := n.cfg.Link.BytesPerCycle
	return pearl.Time((int(bytes) + bpc - 1) / bpc)
}

// inject launches the transport of msg. Called in the sender's process
// context at the moment the message enters the network interface.
func (n *Network) inject(msg *Message) {
	msg.injectedAt = n.k.Now()
	if !msg.isAck {
		n.messages.Inc()
		n.bytes.Add(uint64(msg.Size))
	}
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network.
		copyT := pearl.Time((int(msg.Size) + n.cfg.LocalBytesPerCycle - 1) / n.cfg.LocalBytesPerCycle)
		n.k.After(copyT, func() { n.delivered(msg) })
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
		rt := n.faults.Retrans()
		if rt.MaxRetries > 0 && attempt > rt.MaxRetries {
			// Abandon the packet: the message can never complete, which the
			// end-of-run drain check reports as blocked receivers.
			n.lost.Inc()
			return
		}
		n.retransmits.Inc()
		p.Hold(rt.Delay(attempt))
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
	if !msg.isAck {
		n.msgLatency.Observe(int64(n.k.Now() - msg.injectedAt))
	}
	n.ifs[msg.Dst].arrive(msg)
}

// sendAck issues the rendezvous acknowledgement completing a synchronous
// send, once the receiver has accepted the message.
func (n *Network) sendAck(msg *Message) {
	if !msg.Sync || msg.ackFut == nil {
		return
	}
	n.acks.Inc()
	size := uint32(n.cfg.AckBytes)
	ack := &Message{Src: msg.Dst, Dst: msg.Src, Size: size, isAck: true, ackFut: msg.ackFut}
	n.inject(ack)
}

// MessageLatency returns the distribution of end-to-end message latencies
// (injection to full arrival, excluding send/receive overheads and matching).
func (n *Network) MessageLatency() *stats.Histogram { return &n.msgLatency }

// Messages, Packets and Bytes return the traffic counters (excluding acks
// for Messages... note acks do count as injected traffic in Packets/Bytes).
func (n *Network) Messages() uint64 { return n.messages.Value() }

// Packets returns the number of packets injected.
func (n *Network) Packets() uint64 { return n.packets.Value() }

// Bytes returns the total payload bytes injected.
func (n *Network) Bytes() uint64 { return n.bytes.Value() }

// MeanHops returns the average per-packet hop count observed so far.
func (n *Network) MeanHops() float64 { return n.hopHist.Mean() }

// LinkUtilization returns the mean and maximum utilisation over all links.
func (n *Network) LinkUtilization() (avg, max float64) {
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

// Stats reports the network's aggregate metrics.
func (n *Network) Stats() *stats.Set {
	s := stats.NewSet("network " + n.topo.Name())
	s.PutUint("messages", n.messages.Value(), "")
	s.PutUint("packets", n.packets.Value(), "")
	s.PutUint("payload bytes", n.bytes.Value(), "B")
	s.PutUint("sync acks", n.acks.Value(), "")
	s.Put("mean msg latency", n.msgLatency.Mean(), "cyc")
	s.PutInt("max msg latency", n.msgLatency.Max(), "cyc")
	s.Put("mean hops", n.hopHist.Mean(), "")
	avg, max := n.LinkUtilization()
	s.Put("avg link utilization", avg, "")
	s.Put("max link utilization", max, "")
	return s
}
