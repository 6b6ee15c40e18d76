package machine

import (
	"io"
	"runtime"
	"testing"

	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
)

// A task-level request allocates a few objects per node, not one per metric
// or per message: the report sets are built in bulk, the processor reads its
// trace in place, and the rendezvous acks and receive futures are reused. Building a
// 32×32 wormhole torus, running a synchronous exchange of 4 KiB × 4 on it
// and rendering the report must allocate at most 10 times per node.
func TestTaskExchangeAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := torus32Task(router.Wormhole)
	srcs, err := stochastic.Sources(taskExchangeDesc(cfg.Nodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Build(sim.NewEnv(cfg.Seed, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if err := stats.RenderSet(io.Discard, res.Stats); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, _ := res.Stats.Prefixed("network ").Get("messages"); got != float64(4*cfg.Nodes) {
		t.Fatalf("%v messages, want %d", got, 4*cfg.Nodes)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / float64(cfg.Nodes)
	t.Logf("%d nodes, %d allocations: %.2f per node", cfg.Nodes, after.Mallocs-before.Mallocs, perNode)
	if perNode > 10 {
		t.Errorf("a task-level request allocates %.2f times per node; want at most 10", perNode)
	}
}
