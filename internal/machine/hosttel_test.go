package machine

import (
	"testing"
)

// TestShardTelemetryDoesNotPerturb pins the host-telemetry guarantee: a
// sharded run with telemetry enabled produces a byte-identical stats report
// to the same run without it, at every shard count.
func TestShardTelemetryDoesNotPerturb(t *testing.T) {
	c := taskShardCase()
	run := func(shards int, observe bool) (string, float64) {
		t.Helper()
		cfg := c.cfg
		cfg.Shards = shards
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("shards=%d: build: %v", shards, err)
		}
		var eff func() float64
		if observe {
			g := m.ShardGroup()
			if g == nil {
				t.Fatalf("shards=%d: no shard group", shards)
			}
			eff = g.EnableTelemetry().Efficiency
		}
		res, _, err := runCounted(m, c.streams)
		if err != nil {
			t.Fatalf("shards=%d: run: %v", shards, err)
		}
		if eff == nil {
			return renderStats(t, res.Stats), 0
		}
		return renderStats(t, res.Stats), eff()
	}

	for _, shards := range []int{1, 2, 4} {
		plain, _ := run(shards, false)
		observed, eff := run(shards, true)
		if observed != plain {
			t.Errorf("shards=%d: telemetry changed the stats report", shards)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("shards=%d: efficiency %v, want (0, 1]", shards, eff)
		}
	}
}
