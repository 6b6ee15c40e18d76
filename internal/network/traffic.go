package network

import (
	"strconv"
	"strings"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
)

// fabric is the description every engine walks packets over: the validated
// configuration, its defaults filled, and the topology built from it. Both
// are read-only once built.
type fabric struct {
	cfg  Config
	topo topology.Topology
}

func newFabric(cfg Config) (fabric, error) {
	if err := cfg.Validate(); err != nil {
		return fabric{}, err
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return fabric{}, err
	}
	return fabric{cfg: cfg, topo: topo}, nil
}

// transferTime is the serialisation time of bytes on one link.
func (f *fabric) transferTime(bytes uint32) pearl.Time {
	if cpb := f.cfg.Link.CyclesPerByte; cpb > 0 {
		return pearl.Time(int(bytes) * cpb)
	}
	bpc := f.cfg.Link.BytesPerCycle
	return pearl.Time((int(bytes) + bpc - 1) / bpc)
}

// copyTime is the memory-copy time of a self-send of size bytes, which never
// enters the network.
func (f *fabric) copyTime(size uint32) pearl.Time {
	return pearl.Time((int(size) + f.cfg.LocalBytesPerCycle - 1) / f.cfg.LocalBytesPerCycle)
}

// Traffic is the engine-independent half of the communication model: the
// fabric's configuration and topology, the traffic counters and histograms,
// the "network <topology>" report, and the fault wiring — plus the kernel
// the traffic runs on and the engine carrying it, which is all a NodeIf
// needs besides, and the bottleneck collector its processors report to.
// Network embeds one; the sharded fabric keeps one per shard, with no faults
// or collector, and answers with their merge. What differs between the engines — how packets walk and how links
// are arbitrated — stays with each engine, which writes the counters here
// directly.
type Traffic struct {
	fabric
	k   *pearl.Kernel
	tr  transport
	col *analysis.Collector // nil when the analyzer is off, and on shards

	msgLatency stats.Histogram
	hopHist    stats.Histogram
	messages   stats.Counter
	packets    stats.Counter
	bytes      stats.Counter
	acks       stats.Counter

	// Fault-injection state (all nil/zero on a healthy build — the walkers
	// pay one nil test): the injector supplies link/node liveness and packet
	// fates, the table re-paths around dead links, and the counters account
	// the recovery traffic.
	faults      *fault.Injector
	table       *router.LazyTable
	retransmits stats.Counter
	lost        stats.Counter
	repaths     stats.Counter

	// util is the engine's link utilisation, which reads link state only the
	// engine has.
	util func() (avg, max float64)

	freeAcks []*Message // delivered acks, for ackFor to reuse
}

// AttachFaults activates the fault-injection subsystem: the injector's
// schedule governs link/node liveness and packet noise, routing switches to a
// re-pathing table recomputed on every topology-change event, and lost
// packets are recovered by retransmission with exponential backoff. Attaching
// nil is a no-op; must be called before the simulation runs.
//
// While faults are attached, path selection is always table-based minimal
// routing over the live graph: the Valiant and Adaptive strategies assume a
// static topology and are overridden (see DESIGN.md, "Fault model").
func (t *Traffic) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	t.faults = inj
	// Per-destination rows are computed on first use and dropped on every
	// topology-change event, so the fault-affected cut is the only part of
	// the O(N²) table a run ever pays for.
	t.table = router.NewLazyTable(t.topo, inj.Alive)
	inj.OnChange(func() {
		t.table.Invalidate()
		t.repaths.Inc()
	})
}

// countInjection stamps msg with its injection time and counts it.
// Acknowledgements are traffic but not application messages: they count as
// packets only.
func (t *Traffic) countInjection(msg *Message, now pearl.Time) {
	msg.injectedAt = now
	if !msg.isAck {
		t.messages.Inc()
		t.bytes.Add(uint64(msg.Size))
	}
}

// countDelivery records the end-to-end latency of a fully arrived message.
func (t *Traffic) countDelivery(msg *Message, now pearl.Time) {
	if !msg.isAck {
		t.msgLatency.Observe(int64(now - msg.injectedAt))
	}
}

// ackFor counts and builds the rendezvous acknowledgement of a synchronous
// message its receiver has just accepted, or returns nil when m needs none.
// The ack carries the Future the sender awaits back through the network. It
// reuses a record an earlier ack left in this ledger when one is free.
func (t *Traffic) ackFor(m *Message) *Message {
	if !m.Sync {
		return nil
	}
	t.acks.Inc()
	var ack *Message
	if n := len(t.freeAcks); n > 0 {
		ack = t.freeAcks[n-1]
		t.freeAcks = t.freeAcks[:n-1]
	} else {
		ack = new(Message)
	}
	*ack = Message{Src: m.Dst, Dst: m.Src, Size: uint32(t.cfg.AckBytes), isAck: true, ackFut: m.ackFut}
	return ack
}

// recycleAck takes back an ack that has completed its sender's Future: no
// one holds it any more, since acks never reach Comm.Message. On the
// sharded fabric an ack goes back to the ledger of the shard it arrived on.
func (t *Traffic) recycleAck(ack *Message) {
	ack.ackFut = nil
	t.freeAcks = append(t.freeAcks, ack)
}

// retry accounts a lost packet attempt: it returns the backoff before the
// packet's next attempt (attempt counts the failures so far), or false once
// the retry budget is spent and the packet is abandoned — the message can
// then never complete, which the end-of-run drain check reports as blocked
// receivers.
func (t *Traffic) retry(attempt int) (pearl.Time, bool) {
	rt := t.faults.Retrans()
	if attempt > rt.MaxRetries {
		t.lost.Inc()
		return 0, false
	}
	t.retransmits.Inc()
	return rt.Delay(attempt), true
}

// merge adds o's counters and histograms into t.
func (t *Traffic) merge(o *Traffic) {
	t.msgLatency.Merge(&o.msgLatency)
	t.hopHist.Merge(&o.hopHist)
	t.messages.Add(o.messages.Value())
	t.packets.Add(o.packets.Value())
	t.bytes.Add(o.bytes.Value())
	t.acks.Add(o.acks.Value())
}

// Nodes returns the node count.
func (t *Traffic) Nodes() int { return t.topo.Nodes() }

// Topology returns the interconnect.
func (t *Traffic) Topology() topology.Topology { return t.topo }

// MessageLatency returns the distribution of end-to-end message latencies
// (injection to full arrival, excluding send/receive overheads and matching).
func (t *Traffic) MessageLatency() *stats.Histogram { return &t.msgLatency }

// Stats reports the network's aggregate metrics and, with faults attached,
// the recovery traffic: packet attempts retransmitted, packets abandoned and
// routing tables recomputed.
func (t *Traffic) Stats() *stats.Set {
	s := stats.NewSet("network " + t.topo.Name())
	s.PutUint("messages", t.messages.Value(), "")
	s.PutUint("packets", t.packets.Value(), "")
	s.PutUint("payload bytes", t.bytes.Value(), "B")
	s.PutUint("sync acks", t.acks.Value(), "")
	s.Put("mean msg latency", t.msgLatency.Mean(), "cyc")
	s.PutInt("max msg latency", t.msgLatency.Max(), "cyc")
	s.Put("mean hops", t.hopHist.Mean(), "")
	avg, max := t.util()
	s.Put("avg link utilization", avg, "")
	s.Put("max link utilization", max, "")
	if t.faults != nil {
		s.PutUint("retransmits", t.retransmits.Value(), "")
		s.PutUint("lost packets", t.lost.Value(), "")
		s.PutUint("re-paths", t.repaths.Value(), "")
	}
	return s
}

// nodeAcct is one node's processor and interface accounting — the counters
// behind its "procN" and "nifN" report sets — kept by NodeIf, where the
// task-level Processor charges its compute. Detailed nodes use only the
// interface half.
type nodeAcct struct {
	tasks, sends, recvs           stats.Counter
	compute, sendBlock, recvBlock pearl.Time
}

// The metrics of a "procN" and of a "nifN" set.
const (
	procMetrics = 2
	ifMetrics   = 4
)

// putIf writes the interface counters into ms, ifMetrics long.
func (a *nodeAcct) putIf(ms []stats.Metric) {
	ms[0] = stats.Metric{Name: "sends", Value: float64(a.sends.Value())}
	ms[1] = stats.Metric{Name: "recvs", Value: float64(a.recvs.Value())}
	ms[2] = stats.Metric{Name: "send blocked", Value: float64(a.sendBlock), Unit: "cyc"}
	ms[3] = stats.Metric{Name: "recv blocked", Value: float64(a.recvBlock), Unit: "cyc"}
}

// ifStats reports node i's interface counters.
func (a *nodeAcct) ifStats(i int) *stats.Set {
	s := &stats.Set{Name: "nif" + strconv.Itoa(i), Metrics: make([]stats.Metric, ifMetrics)}
	a.putIf(s.Metrics)
	return s
}

// ProcessorStats reports the n abstract processors proc returns for node ids
// 0 to n-1: one "procN" set each, in node order, with its interface's
// "nifN" set as the one subset. The sets are built in bulk — one array of
// sets, one of metrics, one of subset pointers and one string every name
// slices — so a 16,384-node report costs four allocations, not a dozen per
// node.
func ProcessorStats(n int, proc func(i int) *Processor) []*stats.Set {
	const perNode = procMetrics + ifMetrics
	sets := make([]stats.Set, 2*n)
	ptrs := make([]*stats.Set, 2*n) // the procN sets, then each one's subset
	metrics := make([]stats.Metric, perNode*n)
	// Every name, one after the other. Grown once: a string taken from the
	// builder stays valid as it grows.
	var names strings.Builder
	names.Grow(n * (len("proc") + len("nif") + 2*len(strconv.Itoa(n))))
	var num [20]byte
	for i := 0; i < n; i++ {
		id := strconv.AppendInt(num[:0], int64(i), 10)
		from := names.Len()
		names.WriteString("proc")
		names.Write(id)
		mid := names.Len()
		names.WriteString("nif")
		names.Write(id)
		all := names.String()

		a := &proc(i).nodeAcct
		m := metrics[perNode*i : perNode*(i+1) : perNode*(i+1)]
		ps, is := &sets[2*i], &sets[2*i+1]
		*ps = stats.Set{Name: all[from:mid], Metrics: m[:procMetrics:procMetrics], Subsets: ptrs[n+i : n+i+1 : n+i+1]}
		*is = stats.Set{Name: all[mid:], Metrics: m[procMetrics:]}
		ps.Metrics[0] = stats.Metric{Name: "compute tasks", Value: float64(a.tasks.Value())}
		ps.Metrics[1] = stats.Metric{Name: "compute cycles", Value: float64(a.compute), Unit: "cyc"}
		a.putIf(is.Metrics)
		ptrs[i], ptrs[n+i] = ps, is
	}
	return ptrs[:n:n]
}
