package network

import (
	"fmt"
	"sort"

	"mermaid/internal/pearl"
	"mermaid/internal/router"
)

// ShardedNetwork is the communication fabric of the conservative parallel
// engine: the same node-facing semantics as Network (it implements the same
// transport interface behind NodeIf, and its task-level nodes run the same
// Processor), but with the machine's nodes cut into shards that each own a
// kernel.
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
// machine layer verifies in its tests. The fabric carries no fault plan and
// no observer: the machine refuses both on shards, where the single kernel
// gives the same report.
type ShardedNetwork struct {
	fabric
	group *pearl.ShardGroup
	part  []int // node -> shard
	deg   int
	hop   pearl.Time // per-hop header latency: routing decision + propagation

	// shards holds each shard's traffic ledger: its kernel and its share of
	// the counters. A metric is counted on whichever shard observes the
	// event; Traffic merges the ledgers.
	shards []*Traffic
	links  []*slink     // directed, single virtual channel, indexed node*deg+port
	procs  []Processor  // per node: its interface and abstract processor; never resized
	bufs   []arrivalBuf // per node, same index space as procs
}

// slink is one directed link: a unit-capacity channel owned by the shard of
// its source node. All state transitions happen in that shard's kernel.
type slink struct {
	shard int // owning shard: the source node's
	next  int // destination node of the directed link

	freeAt  pearl.Time // instant the channel is next idle
	busy    pearl.Time // total occupied cycles, for utilisation
	pending []*spkt    // unsorted; arbitrate picks the minimum

	settleAt  pearl.Time // instant an arbitration is already queued for
	revisitAt pearl.Time // future instant a re-arbitration is scheduled at
}

// spkt is one packet in flight under the sharded engine: plain state moved
// between shards by events.
type spkt struct {
	msg    *Message
	bytes  uint32 // wire size of this packet
	key2   uint64 // packet index within the message
	at     int    // current node
	hops   int
	wantAt pearl.Time // when the packet requested its current link
}

// arrivalBuf collects the messages completing at one node within an
// instant; the Post-phase drain hands them to the NodeIf in key order.
type arrivalBuf struct {
	buf     []*Message
	drainAt pearl.Time // instant a drain is already queued for
}

// NewSharded builds the fabric for a partitioned machine. group must have
// one kernel per shard of part. The engine supports store-and-forward and virtual
// cut-through switching with minimal routing; configurations outside that
// envelope (wormhole's channel-holding worms, Valiant's shared RNG,
// adaptive's instantaneous remote queue inspection) are rejected rather
// than silently made nondeterministic.
func NewSharded(group *pearl.ShardGroup, cfg Config, part []int) (*ShardedNetwork, error) {
	fab, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Router.Switching == router.Wormhole {
		return nil, fmt.Errorf("network: wormhole switching is not supported with shards (channels held across shard boundaries)")
	}
	if cfg.Router.Routing != router.Minimal {
		return nil, fmt.Errorf("network: %s routing is not supported with shards", cfg.Router.Routing)
	}
	topo := fab.topo
	if len(part) != topo.Nodes() {
		return nil, fmt.Errorf("network: partition covers %d nodes, topology has %d", len(part), topo.Nodes())
	}
	if cfg.Router.RoutingDelay+cfg.Link.PropDelay < 1 {
		return nil, fmt.Errorf("network: shards need a per-hop latency of at least one cycle for lookahead")
	}
	n := &ShardedNetwork{
		fabric: fab,
		group:  group,
		part:   part,
		deg:    topo.Degree(),
		hop:    cfg.Router.RoutingDelay + cfg.Link.PropDelay,
	}
	n.shards = make([]*Traffic, group.Shards())
	for s := range n.shards {
		n.shards[s] = &Traffic{fabric: fab, k: group.Kernel(s), tr: n}
	}
	n.links = make([]*slink, topo.Nodes()*n.deg)
	for node := 0; node < topo.Nodes(); node++ {
		for port := 0; port < n.deg; port++ {
			nb := topo.Neighbor(node, port)
			if nb < 0 {
				continue
			}
			n.links[node*n.deg+port] = &slink{
				shard: part[node], next: nb,
				settleAt: pearl.Forever, revisitAt: pearl.Forever,
			}
		}
	}
	n.procs = make([]Processor, topo.Nodes())
	n.bufs = make([]arrivalBuf, topo.Nodes())
	for i := range n.procs {
		n.procs[i].NodeIf = NodeIf{led: n.shards[part[i]], id: i}
		n.bufs[i].drainAt = pearl.Forever
	}
	return n, nil
}

// Processor returns node i's abstract processor, which runs on the kernel of
// the node's shard once started.
func (n *ShardedNetwork) Processor(i int) *Processor { return &n.procs[i] }

// Traffic returns the fabric's traffic ledger: the shard ledgers merged, with
// counters summed and histograms merged. It is built afresh on every call.
func (n *ShardedNetwork) Traffic() *Traffic {
	t := &Traffic{fabric: n.fabric, util: n.linkUtilization}
	for _, s := range n.shards {
		t.merge(s)
	}
	return t
}

func (n *ShardedNetwork) shardOf(node int) *Traffic { return n.shards[n.part[node]] }

// inject launches the transport of msg. Runs in the sending node's shard, in
// the sender's event context.
func (n *ShardedNetwork) inject(msg *Message) {
	src := &n.procs[msg.Src]
	src.msgSeq++
	msg.key = uint64(msg.Src)<<32 | src.msgSeq
	s := n.shardOf(msg.Src)
	s.countInjection(msg, s.k.Now())
	if msg.Src == msg.Dst {
		// Local: a memory copy, never entering the network. Delivery still
		// goes through the arrival buffer so same-instant arrivals from the
		// network and from local copies interleave canonically.
		s.k.At(s.k.Now()+n.copyTime(msg.Size), func() { n.deliverMsg(msg) })
		return
	}
	rc := &n.cfg.Router
	msg.remaining = rc.NumPackets(msg.Size)
	for i := 0; i < msg.remaining; i++ {
		s.packets.Inc()
		n.requestHop(&spkt{msg: msg, bytes: rc.PacketBytes(msg.Size, i), key2: uint64(i), at: msg.Src})
	}
}

// requestHop inserts the packet into the pending set of its next link and
// queues that link's arbitration for the end of the instant. Runs in the
// shard owning pk.at, which also owns every outgoing link of pk.at.
func (n *ShardedNetwork) requestHop(pk *spkt) {
	s := n.shardOf(pk.at)
	l := n.links[pk.at*n.deg+n.topo.Route(pk.at, pk.msg.Dst)]
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
	headerAt := l.freeAt // store-and-forward: the whole packet crosses first
	if n.cfg.Router.Switching == router.VirtualCutThrough {
		headerAt = now + n.hop // header advances; the body streams behind
	}
	next := l.next
	n.group.Send(l.shard, n.part[next], headerAt, pk.msg.key, pk.key2, func() {
		n.hopDone(pk, next)
	})
}

// hopDone completes one hop: the packet's header (and, for store-and-
// forward, its body) has reached `next`. Runs in next's shard. headerAt is
// always at least one lookahead window past the grant, so cross-shard sends
// are safe.
func (n *ShardedNetwork) hopDone(pk *spkt, next int) {
	s := n.shardOf(next)
	pk.at = next
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
func (n *ShardedNetwork) deliverPkt(s *Traffic, pk *spkt) {
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
	s.countDelivery(msg, s.k.Now())
	b := &n.bufs[msg.Dst]
	b.buf = append(b.buf, msg)
	if now := s.k.Now(); b.drainAt != now {
		b.drainAt = now
		s.k.Post(func() { n.drainArrivals(msg.Dst) })
	}
}

// drainArrivals hands the instant's arrivals at one node to its NodeIf in
// message-key order. It resets the buffer before touching the interface:
// matching a receive can wake a node that sends again within the same
// instant (a zero-cost local copy), and that re-delivery must get a fresh
// drain.
func (n *ShardedNetwork) drainArrivals(node int) {
	b := &n.bufs[node]
	ms := b.buf
	b.buf = nil
	b.drainAt = pearl.Forever
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	ni := &n.procs[node]
	for _, m := range ms {
		ni.arrive(m)
	}
}

// linkUtilization returns the mean and maximum utilisation over the wired
// links, measured against the run's end time (all shard clocks agree on it
// once the group finishes).
func (n *ShardedNetwork) linkUtilization() (avg, max float64) {
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
