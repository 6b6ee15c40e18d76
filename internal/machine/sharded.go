package machine

import (
	"fmt"

	"mermaid/internal/network"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
)

// buildSharded assembles a task-level machine on the conservative parallel
// engine: the nodes are cut into cfg.Shards contiguous slabs, each slab gets
// its own kernel, and the slabs advance in lockstep windows sized by the
// lookahead the topology cut permits. Validate has refused detailed mode and
// fault schedules on shards; the environment must carry no observer, and its
// kernel is unused, because the engine owns one kernel per shard.
func buildSharded(env sim.Env, cfg Config) (*Machine, error) {
	switch {
	case env.Probe != nil:
		return nil, fmt.Errorf("machine: probes and timelines are not supported with shards; the single kernel (shards 0) gives the same report")
	case env.Collect.Enabled():
		return nil, fmt.Errorf("machine: bottleneck analysis is not supported with shards; the single kernel (shards 0) gives the same report")
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
	// links, whose minimum latency is perHop.
	group := pearl.NewShardGroup(shards, router.ComputeLookahead(topo, part, shards, perHop).Global)
	snet, err := network.NewSharded(group, cfg.Network, part)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, k: group.Kernel(0), group: group, snet: snet}, nil
}
