package machine

import (
	"os"
	"runtime"
	"testing"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
)

// TestScaleSmoke100k drives a 100,000-node dragonfly task-level machine end
// to end on the single-kernel network: build, a two-iteration
// nearest-neighbour workload, and wall-clock/heap budgets sized for CI. The
// run is opt-in (MERMAID_SCALE_SMOKE=1) because it is deliberately heavy for
// a unit-test sweep, and the budgets are deliberately loose — they catch
// complexity regressions (an O(N²) table sneaking back in, a per-node
// goroutine), not microarchitectural noise.
func TestScaleSmoke100k(t *testing.T) {
	if os.Getenv("MERMAID_SCALE_SMOKE") == "" {
		t.Skip("set MERMAID_SCALE_SMOKE=1 to run the 100k-node scale smoke")
	}
	const (
		wallBudget = 120 * time.Second
		heapBudget = 4 << 30 // bytes
	)
	cfg, err := TaskMachineFromSpec("dragonfly:100x10x1000") // 100,000 nodes
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1

	start := time.Now()
	m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(cfg.Seed)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := time.Since(start)

	res, err := m.RunStochastic(stochastic.Desc{
		Name: "scale-smoke", Nodes: 100_000, Level: stochastic.TaskLevel,
		Seed: 7, Iterations: 2,
		Phases: []stochastic.Phase{{
			Duration: 500, CV: 0.2,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 256},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	msgs, _ := res.Stats.Prefixed("network ").Get("messages")
	t.Logf("build %v, total %v, %d cycles, %d events, %v messages, heap %d MiB",
		built, elapsed, res.Cycles, res.Events, msgs, ms.HeapAlloc>>20)

	if wantMsgs := float64(2 * 100_000); msgs != wantMsgs {
		t.Errorf("delivered %v messages, want %v (one per node per iteration)", msgs, wantMsgs)
	}
	if elapsed > wallBudget {
		t.Errorf("run took %v, budget %v", elapsed, wallBudget)
	}
	if ms.HeapAlloc > heapBudget {
		t.Errorf("heap %d bytes, budget %d", ms.HeapAlloc, int64(heapBudget))
	}
}
