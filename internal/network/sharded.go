package network

import (
	"fmt"
	"sort"

	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

// ShardedNetwork is the communication fabric of the conservative parallel
// engine: the same node-facing semantics as Network (it implements the same
// transport interface behind NodeIf), but with the machine's nodes cut into
// shards that each own a kernel, and packet movement expressed as events
// instead of per-packet processes.
//
// Determinism does not come from replaying the single-kernel engine's
// scheduling — it comes from making every cross-order-sensitive interaction
// order-insensitive:
//
//   - Link arbitration runs in the kernel's Settle phase, after every
//     request for the instant has been inserted, and grants the pending
//     request with the smallest (request time, message key, packet index).
//   - Message delivery to a NodeIf runs in the Post phase, draining the
//     node's arrival buffer in message-key order.
//   - Cross-shard handoffs carry (time, message key, packet index) and the
//     shard group injects them in that canonical order.
//
// Together these make a run byte-identical at any shard count, which the
// machine layer verifies in its tests and which makes `-shards` safe to use
// for any experiment the sharded engine accepts.
type ShardedNetwork struct {
	group *pearl.ShardGroup
	cfg   Config
	topo  topology.Topology
	part  []int // node -> shard
	deg   int
	hop   pearl.Time // per-hop header latency: routing decision + propagation

	shards []*netShard
	links  []*slink // directed, single virtual channel, indexed node*deg+port
	ifs    []*NodeIf
	bufs   []arrivalBuf // per node, same index space as ifs

	// Fault state: one injector replica per shard (identical schedules,
	// fired eagerly so replicas agree at every instant), plus one private
	// noise stream per directed link so fate draws are a function of grant
	// order on that link alone.
	injs     []*fault.Injector
	linkRNGs []*pearl.RNG
	retrans  fault.Retrans
}

// netShard is the per-shard slice of the fabric: the kernel, the fault
// replica, and this shard's share of the traffic metrics. Counters are
// summed and histograms merged across shards when the run is reported, so a
// metric may be incremented on whichever shard observes the event.
type netShard struct {
	k     *pearl.Kernel
	inj   *fault.Injector
	table *router.LazyTable // re-pathing table over this shard's replica
	tl    *probe.Timeline

	msgLatency stats.Histogram
	hopHist    stats.Histogram
	messages   stats.Counter
	packets    stats.Counter
	bytes      stats.Counter
	acks       stats.Counter

	retransmits stats.Counter
	lost        stats.Counter
	repaths     stats.Counter
}

// slink is one directed link: a unit-capacity channel owned by the shard of
// its source node. All state transitions happen in that shard's kernel.
type slink struct {
	shard int // owning shard: part[from]
	from  int
	port  int
	next  int // destination node of the directed link

	freeAt  pearl.Time // instant the channel is next idle
	busy    pearl.Time // total occupied cycles, for utilisation
	pending []*spkt    // unsorted; arbitrate picks the minimum

	settleAt  pearl.Time // instant an arbitration is already queued for
	revisitAt pearl.Time // future instant a re-arbitration is scheduled at

	tl    *probe.Timeline
	track probe.Track
}

// spkt is one packet in flight under the sharded engine: plain state moved
// between shards by events, where the single-kernel engine would block a
// dedicated process.
type spkt struct {
	msg     *Message
	bytes   uint32 // wire size of this packet
	key2    uint64 // packet index within the message
	at      int    // current node
	hops    int
	attempt int        // failed attempts so far (retransmission counter)
	wantAt  pearl.Time // when the packet requested its current link
}

// arrivalBuf collects the messages completing at one node within an
// instant; the Post-phase drain hands them to the NodeIf in key order.
type arrivalBuf struct {
	buf     []*Message
	drainAt pearl.Time // instant a drain is already queued for
}

// NewSharded builds the fabric for a partitioned machine. group must have
// one kernel per shard of part; envs carries, per shard, that shard's
// kernel and probe. The engine supports store-and-forward and virtual
// cut-through switching with minimal routing; configurations outside that
// envelope (wormhole's channel-holding worms, Valiant's shared RNG,
// adaptive's instantaneous remote queue inspection) are rejected rather
// than silently made nondeterministic.
func NewSharded(group *pearl.ShardGroup, envs []sim.Env, cfg Config, part []int) (*ShardedNetwork, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Router.Switching == router.Wormhole {
		return nil, fmt.Errorf("network: wormhole switching is not supported with -shards (channels held across shard boundaries)")
	}
	if cfg.Router.Routing != router.Minimal {
		return nil, fmt.Errorf("network: %s routing is not supported with -shards", cfg.Router.Routing)
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if len(part) != topo.Nodes() {
		return nil, fmt.Errorf("network: partition covers %d nodes, topology has %d", len(part), topo.Nodes())
	}
	if cfg.Router.RoutingDelay+cfg.Link.PropDelay < 1 {
		return nil, fmt.Errorf("network: -shards needs a per-hop latency of at least one cycle for lookahead")
	}
	if cfg.LocalBytesPerCycle <= 0 {
		cfg.LocalBytesPerCycle = 8
	}
	n := &ShardedNetwork{
		group: group,
		cfg:   cfg,
		topo:  topo,
		part:  part,
		deg:   topo.Degree(),
		hop:   cfg.Router.RoutingDelay + cfg.Link.PropDelay,
	}
	n.shards = make([]*netShard, group.Shards())
	for s := range n.shards {
		env := envs[s]
		sh := &netShard{k: group.Kernel(s), tl: env.Timeline()}
		reg := env.Registry()
		reg.Counter("net.messages", &sh.messages)
		reg.Counter("net.packets", &sh.packets)
		reg.Counter("net.bytes", &sh.bytes)
		reg.Counter("net.acks", &sh.acks)
		reg.Gauge("net.latency.mean", "cyc", sh.msgLatency.Mean)
		reg.Gauge("net.hops.mean", "", sh.hopHist.Mean)
		reg.Gauge("net.link-utilization.avg", "", func() float64 { avg, _ := n.LinkUtilization(); return avg })
		n.shards[s] = sh
	}
	n.links = make([]*slink, topo.Nodes()*n.deg)
	for node := 0; node < topo.Nodes(); node++ {
		owner := n.shards[part[node]]
		for port := 0; port < n.deg; port++ {
			nb := topo.Neighbor(node, port)
			if nb < 0 {
				continue
			}
			l := &slink{
				shard: part[node], from: node, port: port, next: nb,
				settleAt: pearl.Forever, revisitAt: pearl.Forever,
			}
			if owner.tl != nil {
				l.tl = owner.tl
				l.track = owner.tl.Track(fmt.Sprintf("net.link%d.%d.vc0", node, port))
			}
			n.links[node*n.deg+port] = l
		}
	}
	n.ifs = make([]*NodeIf, topo.Nodes())
	n.bufs = make([]arrivalBuf, topo.Nodes())
	for i := range n.ifs {
		sh := part[i]
		n.ifs[i] = &NodeIf{tr: n, k: group.Kernel(sh), id: i, handles: make(map[uint64]*pearl.Future)}
		n.bufs[i].drainAt = pearl.Forever
		reg := envs[sh].Registry()
		reg.Counter(fmt.Sprintf("net.nif%d.sends", i), &n.ifs[i].sends)
		reg.Counter(fmt.Sprintf("net.nif%d.recvs", i), &n.ifs[i].recvs)
	}
	return n, nil
}

// AttachFaults activates the fault subsystem on a sharded fabric: one
// injector replica per shard (built eagerly by the machine assembly, all
// from the same schedule), a per-shard re-pathing table, and one noise
// stream per directed link derived from seed. Must be called before the
// simulation runs; passing nil replicas is a no-op.
func (n *ShardedNetwork) AttachFaults(injs []*fault.Injector, envs []sim.Env, seed uint64) {
	if len(injs) == 0 || injs[0] == nil {
		return
	}
	n.injs = injs
	n.retrans = injs[0].Retrans()
	for s, sh := range n.shards {
		sh := sh
		sh.inj = injs[s]
		reg := envs[s].Registry()
		reg.Counter("net.retransmits", &sh.retransmits)
		reg.Counter("net.lost", &sh.lost)
		reg.Counter("net.repaths", &sh.repaths)
		sh.table = router.NewLazyTable(n.topo, sh.inj.Alive)
		sh.inj.OnChange(func() {
			sh.table.Invalidate()
			sh.repaths.Inc()
		})
	}
	n.linkRNGs = make([]*pearl.RNG, len(n.links))
	for idx, l := range n.links {
		if l != nil {
			n.linkRNGs[idx] = fault.LinkStream(seed, idx)
		}
	}
}

// transport implementation (see nodeif.go).
func (n *ShardedNetwork) nodeCount() int  { return n.topo.Nodes() }
func (n *ShardedNetwork) config() *Config { return &n.cfg }

// Nodes returns the node count.
func (n *ShardedNetwork) Nodes() int { return n.topo.Nodes() }

// Topology returns the interconnect.
func (n *ShardedNetwork) Topology() topology.Topology { return n.topo }

// Node returns node i's network interface.
func (n *ShardedNetwork) Node(i int) *NodeIf { return n.ifs[i] }

// Faults returns shard 0's injector replica, or nil on a healthy build. It
// carries the canonical schedule; per-shard drop/corruption counts live on
// the other replicas and are summed by the machine's report merge.
func (n *ShardedNetwork) Faults() *fault.Injector {
	if len(n.injs) == 0 {
		return nil
	}
	return n.injs[0]
}

func (n *ShardedNetwork) shardOf(node int) *netShard { return n.shards[n.part[node]] }

func (n *ShardedNetwork) transferTime(bytes uint32) pearl.Time {
	if cpb := n.cfg.Link.CyclesPerByte; cpb > 0 {
		return pearl.Time(int(bytes) * cpb)
	}
	bpc := n.cfg.Link.BytesPerCycle
	return pearl.Time((int(bytes) + bpc - 1) / bpc)
}

// inject launches the transport of msg. Runs in the sending node's shard, in
// the sender's event context.
func (n *ShardedNetwork) inject(msg *Message) {
	src := n.ifs[msg.Src]
	src.msgSeq++
	msg.key = uint64(msg.Src)<<32 | src.msgSeq
	s := n.shardOf(msg.Src)
	msg.injectedAt = s.k.Now()
	if !msg.isAck {
		s.messages.Inc()
		s.bytes.Add(uint64(msg.Size))
	}
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network. Delivery still
		// goes through the arrival buffer so same-instant arrivals from the
		// network and from local copies interleave canonically.
		copyT := pearl.Time((int(msg.Size) + n.cfg.LocalBytesPerCycle - 1) / n.cfg.LocalBytesPerCycle)
		s.k.At(s.k.Now()+copyT, func() { n.deliverMsg(msg) })
		return
	}
	pkts := n.cfg.Router.Packetize(msg.Size)
	msg.remaining = len(pkts)
	for i, wire := range pkts {
		s.packets.Inc()
		pk := &spkt{msg: msg, bytes: wire, key2: uint64(i), at: msg.Src}
		n.startAttempt(pk)
	}
}

// startAttempt begins (or restarts, after a retransmission timeout) one
// packet's walk from its source. Runs in the source node's shard.
func (n *ShardedNetwork) startAttempt(pk *spkt) {
	s := n.shardOf(pk.msg.Src)
	pk.at = pk.msg.Src
	pk.hops = 0
	if s.inj != nil && (s.inj.NodeDown(pk.msg.Src) || s.inj.NodeDown(pk.msg.Dst)) {
		// Source interface crashed, or the destination would discard the
		// arrival: the packet goes nowhere this attempt.
		s.inj.CountDrop()
		n.failRestart(s, pk)
		return
	}
	n.requestHop(pk)
}

// requestHop inserts the packet into the pending set of its next link and
// queues that link's arbitration for the end of the instant. Runs in the
// shard owning pk.at, which also owns every outgoing link of pk.at.
func (n *ShardedNetwork) requestHop(pk *spkt) {
	s := n.shardOf(pk.at)
	var port int
	if s.table != nil {
		port = s.table.Port(pk.at, pk.msg.Dst)
		if port < 0 {
			// The live graph is partitioned right now; retry after the
			// timeout, by which time links may have recovered.
			s.inj.CountDrop()
			n.failRestart(s, pk)
			return
		}
	} else {
		port = n.topo.Route(pk.at, pk.msg.Dst)
	}
	if s.inj != nil && s.inj.LinkDown(pk.at, port) {
		// The table has not been recomputed for a fault landing at this
		// exact instant; the packet is lost at the dead link.
		s.inj.CountDrop()
		n.failRestart(s, pk)
		return
	}
	l := n.links[pk.at*n.deg+port]
	pk.wantAt = s.k.Now()
	l.pending = append(l.pending, pk)
	n.queueArb(l)
}

// queueArb schedules one arbitration of l in the current instant's Settle
// phase, deduplicating repeat requests. Runs in l's owning shard.
func (n *ShardedNetwork) queueArb(l *slink) {
	k := n.shards[l.shard].k
	if now := k.Now(); l.settleAt != now {
		l.settleAt = now
		k.Settle(func() { n.arbitrate(l) })
	}
}

// arbitrate grants the link to pending packets in canonical order. It runs
// in the Settle phase, after every event and delivery of the instant has
// inserted its requests, so the choice is independent of the order those
// insertions happened in — the property that makes contention resolution
// shard-count-invariant.
func (n *ShardedNetwork) arbitrate(l *slink) {
	k := n.shards[l.shard].k
	now := k.Now()
	for len(l.pending) > 0 && l.freeAt <= now {
		n.grant(l, l.takeMin(), now)
	}
	if len(l.pending) > 0 && l.revisitAt != l.freeAt {
		l.revisitAt = l.freeAt
		k.At(l.freeAt, func() { n.queueArb(l) })
	}
}

// takeMin removes and returns the pending packet with the smallest
// (request time, message key, packet index) — FIFO by simulated time, with
// deterministic tie-breaking inside an instant.
func (l *slink) takeMin() *spkt {
	best := 0
	for i, pk := range l.pending[1:] {
		b := l.pending[best]
		if pk.wantAt < b.wantAt ||
			(pk.wantAt == b.wantAt && (pk.msg.key < b.msg.key ||
				(pk.msg.key == b.msg.key && pk.key2 < b.key2))) {
			best = i + 1
		}
	}
	pk := l.pending[best]
	last := len(l.pending) - 1
	l.pending[best] = l.pending[last]
	l.pending[last] = nil
	l.pending = l.pending[:last]
	return pk
}

// grant gives l to pk for one hop: the channel is occupied for the header
// latency plus the packet drain (matching the single-kernel engine's
// channel ownership for both switching modes), and the packet's arrival at
// the far side is scheduled on the neighbouring node's shard.
func (n *ShardedNetwork) grant(l *slink, pk *spkt, now pearl.Time) {
	transfer := n.transferTime(pk.bytes)
	occ := n.hop + transfer
	l.freeAt = now + occ
	l.busy += occ
	if l.tl != nil {
		l.tl.Span(l.track, "pkt", now, l.freeAt)
	}
	headerAt := l.freeAt // store-and-forward: the whole packet crosses first
	if n.cfg.Router.Switching == router.VirtualCutThrough {
		headerAt = now + n.hop // header advances; the body streams behind
	}
	from, port, next := l.from, l.port, l.next
	n.group.Send(l.shard, n.part[next], headerAt, pk.msg.key, pk.key2, func() {
		n.hopDone(pk, from, port, next)
	})
}

// hopDone completes one hop: the packet's header (and, for store-and-
// forward, its body) has reached `next`. Runs in next's shard — faults are
// judged against that shard's replica, and the link's noise stream is drawn
// here, where grant order fixes draw order. headerAt is always at least one
// lookahead window past the grant, so cross-shard sends are safe.
func (n *ShardedNetwork) hopDone(pk *spkt, from, port, next int) {
	s := n.shardOf(next)
	// The packet is in next's shard from here on, lost or not: a restart
	// is sent from the shard that observed the loss (failRestart reads
	// pk.at), never scheduled on from's kernel behind its back.
	pk.at = next
	if s.inj != nil {
		if s.inj.LinkDown(from, port) {
			// The link failed while the packet was crossing it.
			s.inj.CountDrop()
			n.failRestart(s, pk)
			return
		}
		if s.inj.FateWith(n.linkRNGs[from*n.deg+port], from, port) != fault.OK {
			// Dropped in transit or discarded at the next router's checksum;
			// either way this attempt is over.
			n.failRestart(s, pk)
			return
		}
	}
	pk.hops++
	if next != pk.msg.Dst {
		n.requestHop(pk)
		return
	}
	if n.cfg.Router.Switching == router.StoreAndForward {
		n.deliverPkt(s, pk)
		return
	}
	// Virtual cut-through: the body drains at the destination behind the
	// header before the packet is complete.
	s.k.At(s.k.Now()+n.transferTime(pk.bytes), func() { n.deliverPkt(s, pk) })
}

// deliverPkt lands one complete packet at its destination node's shard.
func (n *ShardedNetwork) deliverPkt(s *netShard, pk *spkt) {
	if s.inj != nil && s.inj.NodeDown(pk.msg.Dst) {
		// The destination crashed while the packet was in flight.
		s.inj.CountDrop()
		n.failRestart(s, pk)
		return
	}
	s.hopHist.Observe(int64(pk.hops))
	pk.msg.remaining--
	if pk.msg.remaining == 0 {
		n.deliverMsg(pk.msg)
	}
}

// deliverMsg queues a fully-arrived message on the destination node's
// arrival buffer and schedules the instant's Post-phase drain. Runs in the
// destination's shard.
func (n *ShardedNetwork) deliverMsg(msg *Message) {
	s := n.shardOf(msg.Dst)
	if !msg.isAck {
		s.msgLatency.Observe(int64(s.k.Now() - msg.injectedAt))
	}
	b := &n.bufs[msg.Dst]
	b.buf = append(b.buf, msg)
	if now := s.k.Now(); b.drainAt != now {
		b.drainAt = now
		s.k.Post(func() { n.drainArrivals(msg.Dst) })
	}
}

// drainArrivals hands the instant's arrivals at one node to its NodeIf in
// message-key order. It resets the buffer before touching the interface:
// matching a receive can wake a process that sends again within the same
// instant (a zero-cost local copy), and that re-delivery must get a fresh
// drain.
func (n *ShardedNetwork) drainArrivals(node int) {
	b := &n.bufs[node]
	ms := b.buf
	b.buf = nil
	b.drainAt = pearl.Forever
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	ni := n.ifs[node]
	for _, m := range ms {
		ni.arrive(m)
	}
}

// failRestart handles a failed packet attempt observed on shard s: the
// source learns of the loss through its retransmission timer and resends
// from scratch, backing off exponentially, until the retry budget is
// exhausted. The timeout is never shorter than the lookahead window, so the
// restart can cross back to the source's shard.
func (n *ShardedNetwork) failRestart(s *netShard, pk *spkt) {
	pk.attempt++
	if n.retrans.MaxRetries > 0 && pk.attempt > n.retrans.MaxRetries {
		// Abandon the packet: the message can never complete, which the
		// end-of-run drain check reports as blocked receivers.
		s.lost.Inc()
		return
	}
	s.retransmits.Inc()
	restartAt := s.k.Now() + n.retrans.Delay(pk.attempt)
	cur := n.part[pk.at]
	n.group.Send(cur, n.part[pk.msg.Src], restartAt, pk.msg.key, pk.key2, func() {
		n.startAttempt(pk)
	})
}

// sendAck issues the rendezvous acknowledgement completing a synchronous
// send, once the receiver has accepted the message. Runs in the receiver's
// shard; the ack travels back through the network like any message.
func (n *ShardedNetwork) sendAck(msg *Message) {
	if !msg.Sync || msg.ackFut == nil {
		return
	}
	n.shardOf(msg.Dst).acks.Inc()
	ack := &Message{Src: msg.Dst, Dst: msg.Src, Size: uint32(n.cfg.AckBytes), isAck: true, ackFut: msg.ackFut}
	n.inject(ack)
}

// MessageLatency returns the merged end-to-end latency distribution.
func (n *ShardedNetwork) MessageLatency() *stats.Histogram {
	var h stats.Histogram
	for _, s := range n.shards {
		// Every shard uses the default bucket layout, so Merge cannot fail.
		if err := h.Merge(&s.msgLatency); err != nil {
			panic(err)
		}
	}
	return &h
}

// HopHistogram returns the merged per-packet hop-count distribution.
func (n *ShardedNetwork) HopHistogram() *stats.Histogram {
	var h stats.Histogram
	for _, s := range n.shards {
		if err := h.Merge(&s.hopHist); err != nil {
			panic(err)
		}
	}
	return &h
}

// Messages returns the total application messages injected (excluding acks).
func (n *ShardedNetwork) Messages() uint64 {
	return n.sum(func(s *netShard) uint64 { return s.messages.Value() })
}

// Packets returns the number of packets injected.
func (n *ShardedNetwork) Packets() uint64 {
	return n.sum(func(s *netShard) uint64 { return s.packets.Value() })
}

// Bytes returns the total payload bytes injected.
func (n *ShardedNetwork) Bytes() uint64 {
	return n.sum(func(s *netShard) uint64 { return s.bytes.Value() })
}

// Retransmits returns how many packet retransmissions the fabric issued.
func (n *ShardedNetwork) Retransmits() uint64 {
	return n.sum(func(s *netShard) uint64 { return s.retransmits.Value() })
}

// Lost returns how many packets were abandoned after exhausting retries.
func (n *ShardedNetwork) Lost() uint64 {
	return n.sum(func(s *netShard) uint64 { return s.lost.Value() })
}

func (n *ShardedNetwork) sum(f func(*netShard) uint64) uint64 {
	var t uint64
	for _, s := range n.shards {
		t += f(s)
	}
	return t
}

// LinkUtilization returns the mean and maximum utilisation over the wired
// links, measured against the run's end time (all shard clocks agree on it
// once the group finishes).
func (n *ShardedNetwork) LinkUtilization() (avg, max float64) {
	end := n.shards[0].k.Now()
	if end == 0 {
		return 0, 0
	}
	count := 0
	for _, l := range n.links {
		if l == nil {
			continue
		}
		u := float64(l.busy) / float64(end)
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

// Stats reports the fabric's aggregate metrics, merged across shards into
// the same shape the single-kernel engine reports.
func (n *ShardedNetwork) Stats() *stats.Set {
	lat := n.MessageLatency()
	s := stats.NewSet("network " + n.topo.Name())
	s.PutUint("messages", n.Messages(), "")
	s.PutUint("packets", n.Packets(), "")
	s.PutUint("payload bytes", n.Bytes(), "B")
	s.PutUint("sync acks", n.sum(func(sh *netShard) uint64 { return sh.acks.Value() }), "")
	s.Put("mean msg latency", lat.Mean(), "cyc")
	s.PutInt("max msg latency", lat.Max(), "cyc")
	s.Put("mean hops", n.HopHistogram().Mean(), "")
	avg, max := n.LinkUtilization()
	s.Put("avg link utilization", avg, "")
	s.Put("max link utilization", max, "")
	return s
}
