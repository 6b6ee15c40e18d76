package machine

import (
	"fmt"

	"mermaid/internal/fault"
	"mermaid/internal/network"
	"mermaid/internal/node"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
)

// buildSharded assembles the machine on the conservative parallel engine:
// the nodes are cut into cfg.Shards contiguous slabs, each slab gets its own
// kernel, RNG root and probe, and the slabs advance in lockstep windows
// sized by the lookahead the topology cut permits. The caller's env supplies
// only the instrumentation intent (probe attached or not); its kernel is
// unused, because the engine owns one kernel per shard.
func buildSharded(env sim.Env, cfg Config) (*Machine, error) {
	if env.Collect.Enabled() {
		return nil, fmt.Errorf("machine: bottleneck analysis is not supported with shards")
	}
	topo, err := topology.New(cfg.Network.Topology)
	if err != nil {
		return nil, err
	}
	perHop := cfg.Network.Router.RoutingDelay + cfg.Network.Link.PropDelay
	if perHop < 1 {
		return nil, fmt.Errorf("machine: the parallel engine needs a per-hop link latency of at least one cycle for lookahead")
	}
	part := topology.Partition(cfg.Nodes, cfg.Shards)
	shards := topology.Shards(part)
	// The synchronisation window: nothing a shard does before T+L can affect
	// another shard at or before T+L, because state only propagates over
	// links (minimum latency perHop) or retransmission timeouts (minimum
	// Timeout). Either bound alone is safe; take the smaller.
	look := router.ComputeLookahead(topo, part, shards, perHop).Global
	if !cfg.Faults.Empty() {
		look = min(look, cfg.Faults.Retrans.Timeout)
	}
	group := pearl.NewShardGroup(shards, look)
	m := &Machine{cfg: cfg, k: group.Kernel(0), pb: env.Probe, group: group}
	wantTL := env.Timeline() != nil
	m.envs = make([]sim.Env, shards)
	for s := 0; s < shards; s++ {
		k := group.Kernel(s)
		var pb *probe.Probe
		if env.Probe != nil {
			// One probe per shard; timelines are canonicalised when the run
			// is reported. Each shard's registry names only its own
			// components and no sampler reads it: the per-shard event counts
			// a sample would carry are partition-dependent.
			pb = probe.New(probe.Config{Timeline: wantTL})
		}
		e := sim.Env{Kernel: k, RNG: pearl.NewRNG(cfg.Seed), Probe: pb}
		e.Registry().Gauge("kernel.events", "", func() float64 { return float64(k.EventCount()) })
		m.envs[s] = e
	}
	snet, err := network.NewSharded(group, m.envs, cfg.Network, part)
	if err != nil {
		return nil, err
	}
	m.snet = snet
	if cfg.Mode == Detailed {
		for i := 0; i < cfg.Nodes; i++ {
			nd, err := node.New(m.envs[part[i]], node.Params{ID: i, Cfg: cfg.Node, NIF: snet.Node(i)})
			if err != nil {
				return nil, err
			}
			m.nodes = append(m.nodes, nd)
		}
	}
	if !cfg.Faults.Empty() {
		// One injector replica per shard, all built from the same schedule
		// with eagerly pre-scheduled transitions: every replica fires the
		// same state changes at the same instants, before any model event of
		// those instants, so liveness queries agree across shards without
		// synchronisation. Only replica 0 closes the fault timeline
		// (Finish); drop counts land on whichever replica observed the drop
		// and fault.Stats sums them.
		injs := make([]*fault.Injector, shards)
		for s := range injs {
			inj, err := fault.NewInjectorEager(group.Kernel(s), topo, *cfg.Faults, m.envs[s].RNG, m.envs[s].Probe)
			if err != nil {
				return nil, err
			}
			injs[s] = inj
		}
		m.injs = injs
		snet.AttachFaults(injs, cfg.Seed)
	}
	return m, nil
}

// events returns the run's event count. Under the parallel engine the
// per-shard counts are summed and all but one copy of the replicated
// daemon (fault-transition) events subtracted, so the total matches a
// one-shard run of the same model.
func (m *Machine) events() uint64 {
	if m.group == nil {
		return m.k.EventCount()
	}
	var total uint64
	for i, k := range m.kernels() {
		total += k.EventCount()
		if i > 0 {
			total -= k.DaemonEvents()
		}
	}
	return total
}

// MergedTimeline returns the timeline to export: the single timeline on the
// single-kernel engine, or the canonical merge of the per-shard timelines
// (byte-identical at any shard count) on the parallel engine. Nil when the
// machine was built without timeline tracing.
func (m *Machine) MergedTimeline() *probe.Timeline {
	if m.group == nil {
		return m.pb.Timeline()
	}
	tls := make([]*probe.Timeline, len(m.envs))
	for i, e := range m.envs {
		tls[i] = e.Timeline()
	}
	return probe.MergeTimelines(tls...)
}
