package pearl

import "time"

// This file is the parallel engine's host-side introspection: wall-clock
// accounting of how long each shard computed and how long it waited at the
// barrier. It observes the coordinator and its workers — never virtual time
// — so enabling it cannot perturb simulation results; the determinism pins
// in internal/machine hold with telemetry on and off. Without a telemetry
// record the window loop takes no timestamps and allocates nothing.

// ShardTelemetry accumulates the parallel engine's busy and barrier-wait
// time per shard over one Run. Read it after Run; the engine owns it during.
type ShardTelemetry struct {
	// Shards holds one load record per shard.
	Shards []ShardLoad
}

// ShardLoad is one shard's share of the run.
type ShardLoad struct {
	// Busy is wall-clock time spent executing windows.
	Busy time.Duration
	// Wait is wall-clock barrier time: after finishing each window, how
	// long the shard idled until the slowest shard of that window finished.
	Wait time.Duration
}

// Efficiency returns the run's parallel efficiency: mean busy fraction
// across shards, in [0, 1]. A perfectly balanced run with no barrier
// overhead scores 1.
func (t *ShardTelemetry) Efficiency() float64 {
	if t == nil || len(t.Shards) == 0 {
		return 0
	}
	var busy, total time.Duration
	for i := range t.Shards {
		busy += t.Shards[i].Busy
		total += t.Shards[i].Busy + t.Shards[i].Wait
	}
	if total <= 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// EnableTelemetry attaches (and returns) a telemetry record to the group.
// Call before Run; the record accumulates across Run and is never reset.
func (g *ShardGroup) EnableTelemetry() *ShardTelemetry {
	if g.tel == nil {
		g.tel = &ShardTelemetry{Shards: make([]ShardLoad, len(g.kernels))}
	}
	return g.tel
}
