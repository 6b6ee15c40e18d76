package stochastic

import (
	"runtime"
	"testing"
	"unsafe"

	"mermaid/internal/ops"
)

// TestSourcesAmortisedAllocs: Sources writes every operation once, into a
// segment sized for it, and hands the segments out in place, so it allocates
// little beyond the operations themselves. The description is the benchmark's
// detailed-t805 request: two iterations of a 5,000-instruction phase with CV
// 0.1 on 16 nodes, closed by a nearest-neighbour exchange. Appending to one
// growing slice per node allocated 1.6 times the operations' bytes.
func TestSourcesAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := Desc{
		Nodes: 16, Level: InstructionLevel, Seed: 3, Iterations: 2,
		Phases: []Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: Comm{Pattern: NearestNeighbor, Bytes: 1024},
		}},
	}
	traces, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tr := range traces {
		n += len(tr)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Sources(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	opBytes := float64(n) * float64(unsafe.Sizeof(ops.Op{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / opBytes
	t.Logf("Sources allocates %.3f times the bytes of its %d operations", ratio, n)
	if ratio > 1.1 {
		t.Errorf("Sources allocates %.2f times the bytes of its %d operations; want at most 1.1", ratio, n)
	}
}
