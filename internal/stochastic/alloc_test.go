package stochastic

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"mermaid/internal/ops"
	"mermaid/internal/trace"
)

// t805Desc is the benchmark's detailed-t805 request: two iterations of a
// 5,000-instruction phase with CV 0.1 on 16 nodes, closed by a
// nearest-neighbour exchange.
func t805Desc() Desc {
	return Desc{
		Nodes: 16, Level: InstructionLevel, Seed: 3, Iterations: 2,
		Phases: []Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: Comm{Pattern: NearestNeighbor, Bytes: 1024},
		}},
	}
}

// TestSourcesAmortisedAllocs: Sources keeps an instruction-level computation
// as drawn — one byte per instruction and one address per load or store,
// about 0.05 times the bytes of the two operations per instruction it stands
// for on the default mix — and expands it only as it is read. Storing the
// operations themselves, in segments, allocated 1.02 times their bytes.
func TestSourcesAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := t805Desc()
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
	if ratio > 0.1 {
		t.Errorf("Sources allocates %.3f times the bytes of its %d operations; want at most 0.1", ratio, n)
	}
}

// TestAllocFreeCursorOverSource: a source makes its operations in one buffer
// it reuses, so reading a stream by Peek and Advance allocates nothing per
// operation.
func TestAllocFreeCursorOverSource(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := t805Desc()
	d.Iterations = 4 // about 40,000 operations per node
	srcs, err := Sources(d)
	if err != nil {
		t.Fatal(err)
	}
	cur := trace.NewCursor(srcs[0])
	const batches = 8
	cycle := func() {
		for i := 0; i < batches*maxBatch; i++ {
			if _, err := cur.Peek(); err != nil {
				t.Fatal(err)
			}
			cur.Advance()
		}
	}
	cycle()
	// 31 more cycles read about 16,000 operations: past the first block and
	// the communication after it.
	if got := testing.AllocsPerRun(30, cycle); got != 0 {
		t.Errorf("%d Peek/Advance pairs allocate %v times; want 0", batches*maxBatch, got)
	}
}

// TestTaskSourcesAmortisedAllocs: a task-level source keeps its node's draws
// as numbers and makes its operations in a buffer cut from one allocation
// for all nodes, so Sources allocates a number of objects that does not grow
// with the node count, and at most 320 bytes per node. Storing every
// compute, send and receive as an operation in segments allocated about 4
// objects and 460 bytes per node. Draining a source allocates nothing.
func TestTaskSourcesAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	exchange := func(nodes int) Desc {
		return Desc{
			Nodes: nodes, Level: TaskLevel, Seed: 5, Iterations: 2,
			Phases: []Phase{{Duration: 1000, CV: 0.1, Comm: Comm{Pattern: Exchange, Bytes: 4096}}},
		}
	}
	sources := func(d Desc) []trace.Source {
		srcs, err := Sources(d)
		if err != nil {
			t.Fatal(err)
		}
		return srcs
	}
	const nodes = 4096
	small := testing.AllocsPerRun(5, func() { sources(exchange(16)) })
	large := testing.AllocsPerRun(5, func() { sources(exchange(nodes)) })
	if large != small {
		t.Errorf("Sources allocates %v objects for %d nodes and %v for 16; want the same", large, nodes, small)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sources(exchange(nodes))
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / nodes
	t.Logf("Sources allocates %v objects and %.0f bytes per node for %d nodes", large, perNode, nodes)
	if perNode > 320 {
		t.Errorf("Sources allocates %.0f bytes per node; want at most 320", perNode)
	}

	srcs := sources(exchange(nodes))
	next := 0
	if got := testing.AllocsPerRun(nodes-1, func() {
		for {
			if _, _, err := srcs[next].NextBatch(); err == io.EOF {
				break
			}
		}
		next++
	}); got != 0 {
		t.Errorf("draining a source allocates %v times; want 0", got)
	}
}
