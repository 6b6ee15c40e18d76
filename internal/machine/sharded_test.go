package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// runShardedReport builds cfg with the given shard count and runs the case's
// streams, returning the rendered stats report, the exported timeline and the
// merged ledger's reading (all byte-for-byte comparable across shard counts).
// The run must conserve its traffic.
func runShardedReport(t *testing.T, cfg Config, shards int, s streams) (string, string, string) {
	t.Helper()
	cfg.Shards = shards
	pb := probe.New(probe.Config{Timeline: true})
	m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(cfg.Seed), Probe: pb}, cfg)
	if err != nil {
		t.Fatalf("shards=%d: build: %v", shards, err)
	}
	res, syncSends, err := runCounted(m, s)
	if err != nil {
		t.Fatalf("shards=%d: run: %v", shards, err)
	}
	checkConservation(t, fmt.Sprintf("shards=%d", shards), m, res, syncSends)
	var report bytes.Buffer
	if err := stats.RenderSet(&report, res.Stats); err != nil {
		t.Fatalf("shards=%d: render: %v", shards, err)
	}
	var tl bytes.Buffer
	if err := m.MergedTimeline().WriteJSON(&tl); err != nil {
		t.Fatalf("shards=%d: timeline: %v", shards, err)
	}
	return report.String(), tl.String(), ledgerReading(t, m)
}

// checkShardInvariance runs the model at 1, 2 and 4 shards and requires the
// full stats report and the timeline export to be byte-identical — the
// determinism gate of the parallel engine.
func checkShardInvariance(t *testing.T, cfg Config, s streams) {
	t.Helper()
	ref, refTL, refLedger := runShardedReport(t, cfg, 1, s)
	if !strings.Contains(ref, "messages") {
		t.Fatalf("reference report looks empty:\n%s", ref)
	}
	for _, shards := range []int{2, 4} {
		got, gotTL, gotLedger := runShardedReport(t, cfg, shards, s)
		if got != ref {
			t.Errorf("shards=%d: stats report differs from shards=1\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
				shards, ref, shards, got)
		}
		if gotTL != refTL {
			t.Errorf("shards=%d: timeline differs from shards=1 (%d vs %d bytes)",
				shards, len(gotTL), len(refTL))
		}
		if gotLedger != refLedger {
			t.Errorf("shards=%d: ledger differs from shards=1\nshards=1: %s\nshards=%d: %s",
				shards, refLedger, shards, gotLedger)
		}
	}
}

// shardCase is one machine and workload whose reports and timelines must not
// depend on the shard count.
type shardCase struct {
	name    string
	cfg     Config
	streams streams
}

func shardCases() []shardCase {
	pingpong := T805Grid(2, 1)
	pingpong.Seed = 42
	// Task-level mode: abstract processors on the sharded fabric, driven by
	// a stochastic neighbour-exchange application with load imbalance and
	// message-size jitter (every draw comes from per-stream RNGs, so the
	// trace is the same at any shard count).
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
	jacobi := T805Grid(2, 2)
	jacobi.Seed = 7
	// The fault-resilience experiment's machine: link down-windows, packet
	// noise and retransmission all active at once, which exercises the
	// replicated injectors, the per-link noise streams and the cross-shard
	// retransmission restarts.
	faulted := T805Grid(2, 2)
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 200_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
		Retrans: fault.Retrans{
			Timeout:    200,
			Backoff:    2,
			MaxRetries: 16,
		},
	}
	return []shardCase{
		// Two nodes cap the useful shard count at 2; the engine clamps 4 to 2.
		{"PingPong", pingpong, programStreams(func() *trace.Program { return workload.PingPong(20, 1500) })},
		{"TaskLevel", task, stochasticStreams(desc)},
		{"JacobiDetailed", jacobi, programStreams(func() *trace.Program { return workload.Jacobi1D(4, 64, 3) })},
		{"UnderFaults", faulted, programStreams(func() *trace.Program { return workload.Jacobi1D(4, 256, 6) })},
	}
}

// checkShardCase runs the named shardCases entry through checkShardInvariance.
func checkShardCase(t *testing.T, name string) {
	t.Helper()
	for _, c := range shardCases() {
		if c.name == name {
			checkShardInvariance(t, c.cfg, c.streams)
			return
		}
	}
	t.Fatalf("no shard case %q", name)
}

func TestShardInvariancePingPong(t *testing.T) {
	checkShardCase(t, "PingPong")
}

func TestShardInvarianceTaskLevel(t *testing.T) {
	checkShardCase(t, "TaskLevel")
}

func TestShardInvarianceJacobiDetailed(t *testing.T) {
	checkShardCase(t, "JacobiDetailed")
}

func TestShardInvarianceUnderFaults(t *testing.T) {
	checkShardCase(t, "UnderFaults")
}

func TestShardedRejectsUnsupported(t *testing.T) {
	cfg := T805GridTaskLevel(2, 2)
	cfg.Shards = 2
	cfg.Network.Router.Switching = router.Wormhole
	if _, err := New(cfg); err == nil {
		t.Fatalf("wormhole switching accepted with shards")
	}
	cfg = T805GridTaskLevel(2, 2)
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Fatalf("negative shard count accepted")
	}
}
