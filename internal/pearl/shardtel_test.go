package pearl

import (
	"testing"
	"time"
)

// ringGroup builds a shard group where each shard forwards a token to the
// next at +lookahead, for hops cross-shard events total.
func ringGroup(shards int, lookahead Time, hops int) *ShardGroup {
	g := NewShardGroup(shards, lookahead)
	n := 0
	var step func(src int, at Time)
	step = func(src int, at Time) {
		if n++; n > hops {
			return
		}
		dst := (src + 1) % shards
		g.Send(src, dst, at+lookahead, uint64(n), 0, func() { step(dst, at+lookahead) })
	}
	g.Kernel(0).At(0, func() { step(0, 0) })
	return g
}

func TestShardTelemetryAccounting(t *testing.T) {
	const shards, hops = 4, 48
	g := ringGroup(shards, 16, hops)
	tel := g.EnableTelemetry()
	g.Run()

	if len(tel.Shards) != shards {
		t.Fatalf("%d load records for %d shards", len(tel.Shards), shards)
	}
	var busy time.Duration
	for i := range tel.Shards {
		busy += tel.Shards[i].Busy
	}
	if busy <= 0 {
		t.Error("no busy time accumulated")
	}
	if eff := tel.Efficiency(); eff <= 0 || eff > 1 {
		t.Errorf("Efficiency = %v, want (0, 1]", eff)
	}
}

func TestShardTelemetrySingleShard(t *testing.T) {
	g := NewShardGroup(1, 8)
	tel := g.EnableTelemetry()
	var n int
	var tick func()
	tick = func() {
		if n++; n < 32 {
			g.Kernel(0).At(g.Kernel(0).Now()+8, tick)
		}
	}
	g.Kernel(0).At(0, tick)
	g.Run()
	if tel.Shards[0].Busy <= 0 {
		t.Error("single-shard telemetry recorded no busy time")
	}
	if tel.Shards[0].Wait != 0 {
		t.Errorf("single shard waited %v at its own barrier", tel.Shards[0].Wait)
	}
	if eff := tel.Efficiency(); eff != 1 {
		t.Errorf("single-shard Efficiency = %v, want 1", eff)
	}
}

// TestTelemetryIdenticalEventCounts pins that enabling telemetry does not
// change what the kernels execute: same event counts, same final time.
func TestTelemetryIdenticalEventCounts(t *testing.T) {
	plain := ringGroup(3, 16, 30)
	endPlain := plain.Run()

	obs := ringGroup(3, 16, 30)
	obs.EnableTelemetry()
	endObs := obs.Run()

	if endPlain != endObs {
		t.Errorf("final time differs: %d vs %d", endPlain, endObs)
	}
	for i := 0; i < 3; i++ {
		if p, o := plain.Kernel(i).EventCount(), obs.Kernel(i).EventCount(); p != o {
			t.Errorf("shard %d: event count %d with telemetry vs %d without", i, o, p)
		}
	}
}
