package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
)

// runShardedReport builds cfg with the given shard count and runs the case's
// streams, returning the rendered stats report and the merged ledger's
// reading (both byte-for-byte comparable across shard counts). The run must
// conserve its traffic.
func runShardedReport(t *testing.T, c engineCase, shards int) (string, string) {
	t.Helper()
	cfg := c.cfg
	cfg.Shards = shards
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("shards=%d: build: %v", shards, err)
	}
	res, syncSends, err := runCounted(m, c.streams)
	if err != nil {
		t.Fatalf("shards=%d: run: %v", shards, err)
	}
	checkConservation(t, fmt.Sprintf("shards=%d", shards), m, res, syncSends)
	var report bytes.Buffer
	if err := stats.RenderSet(&report, res.Stats); err != nil {
		t.Fatalf("shards=%d: render: %v", shards, err)
	}
	return report.String(), ledgerReading(t, m)
}

// taskShardCase is the machine and workload whose report must not depend on
// the shard count: abstract processors on the sharded fabric, driven by a
// stochastic neighbour-exchange application with load imbalance and
// message-size jitter (every draw comes from per-stream RNGs, so the trace
// is the same at any shard count).
func taskShardCase() engineCase {
	task := T805GridTaskLevel(2, 2)
	task.Seed = 7
	desc := stochastic.Desc{
		Name: "shard-task", Nodes: 4, Level: stochastic.TaskLevel, Seed: 11, Iterations: 8,
		Phases: []stochastic.Phase{{
			Duration: 3000, CV: 0.3,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
		}, {
			Duration: 1000,
			Comm:     stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 256, Async: true},
		}},
	}
	return engineCase{"TaskLevel", task, stochasticStreams(desc)}
}

// TestShardInvarianceTaskLevel runs the task-level case at 1, 2 and 4 shards
// and requires the full stats report and the ledger to be byte-identical —
// the determinism gate of the parallel engine.
func TestShardInvarianceTaskLevel(t *testing.T) {
	c := taskShardCase()
	ref, refLedger := runShardedReport(t, c, 1)
	if !strings.Contains(ref, "messages") {
		t.Fatalf("reference report looks empty:\n%s", ref)
	}
	for _, shards := range []int{2, 4} {
		got, gotLedger := runShardedReport(t, c, shards)
		if got != ref {
			t.Errorf("shards=%d: stats report differs from shards=1\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
				shards, ref, shards, got)
		}
		if gotLedger != refLedger {
			t.Errorf("shards=%d: ledger differs from shards=1\nshards=1: %s\nshards=%d: %s",
				shards, refLedger, shards, gotLedger)
		}
	}
}

// TestShardedRejectsUnsupported holds every configuration the parallel
// engine does not run to an error — never a panic — and every refusal that
// the single kernel runs the same machine to saying so.
func TestShardedRejectsUnsupported(t *testing.T) {
	task := func(shards int) Config {
		cfg := T805GridTaskLevel(2, 2)
		cfg.Shards = shards
		return cfg
	}
	const single = "the single kernel (shards 0) gives the same report"
	wormhole := task(2)
	wormhole.Network.Router.Switching = router.Wormhole
	detailed := T805Grid(2, 2)
	detailed.Shards = 2
	faulted := task(2)
	faulted.Faults = &fault.Schedule{Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}}}
	plain := func(seed uint64) sim.Env { return sim.NewEnv(seed, nil) }
	for _, tc := range []struct {
		name string
		cfg  Config
		env  func(seed uint64) sim.Env
		want string // a part of the error; "" for any error
	}{
		{"wormhole", wormhole, plain, ""},
		{"negative", task(-1), plain, ""},
		{"detailed", detailed, plain, single},
		{"faults", faulted, plain, single},
		{"bare probe", task(2), func(seed uint64) sim.Env {
			return sim.NewEnv(seed, probe.New(probe.Config{}))
		}, single},
		{"timeline probe", task(2), func(seed uint64) sim.Env {
			return sim.NewEnv(seed, probe.New(probe.Config{Timeline: true}))
		}, single},
		{"collector", task(2), func(seed uint64) sim.Env {
			return plain(seed).WithCollector(analysis.New())
		}, single},
	} {
		_, err := Build(tc.env(tc.cfg.Seed), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal containing %q", tc.name, err, tc.want)
		}
	}
}
