package network

import (
	"math"
	"runtime"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// runMeshExchange runs a contended exchange of the service job's size on a
// wormhole 8x8 mesh — node i swaps 8 KiB messages with node 63-i, 40 times,
// every message crossing the bisection — and returns the heap allocations of
// building and running it, and the packet-hops it made. With observed set,
// the timeline and the bottleneck collector are attached.
func runMeshExchange(t *testing.T, observed bool) (allocs, hops uint64) {
	t.Helper()
	const nodes = 64
	cfg := Config{
		Topology:     topology.Config{Kind: topology.Mesh2D, DimX: 8, DimY: 8},
		Router:       router.Config{Switching: router.Wormhole, RoutingDelay: 2, MaxPacket: 1024, HeaderBytes: 8},
		Link:         LinkConfig{BytesPerCycle: 2, PropDelay: 1},
		SendOverhead: 50,
		RecvOverhead: 50,
		AckBytes:     8,
	}
	return runExchange(t, cfg, exchangeStreams(nodes, 40, 8192, func(i int) int { return nodes - 1 - i }), observed)
}

// exchangeStreams gives each of nodes processors rounds of a compute burst,
// an asynchronous send of size bytes to peer(i) and a receive from it.
func exchangeStreams(nodes, rounds int, size uint32, peer func(int) int) [][]ops.Op {
	streams := make([][]ops.Op, nodes)
	for i := range streams {
		p := int32(peer(i))
		for r := 0; r < rounds; r++ {
			streams[i] = append(streams[i], ops.NewCompute(200), ops.NewASend(size, p, uint32(r)), ops.NewRecv(p, uint32(r)))
		}
	}
	return streams
}

// runExchange builds cfg and runs one task-level processor per stream on it,
// returning the heap allocations of building and running it and the
// packet-hops it made. With observed set, the timeline and the bottleneck
// collector are attached.
func runExchange(t testing.TB, cfg Config, streams [][]ops.Op, observed bool) (allocs, hops uint64) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env := sim.Env{Kernel: pearl.NewKernel()}
	if observed {
		env.Probe = probe.New(probe.Config{Timeline: true})
		env.Collect = analysis.New()
		env.Collect.SetMachine("exchange", 1, env.Kernel)
	}
	n, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range streams {
		n.Processor(i).Start(trace.FromOps(streams[i]))
	}
	env.Kernel.Run()
	runtime.ReadMemStats(&after)
	for i := range streams {
		if p := n.Processor(i); !p.done || p.Err() != nil {
			t.Fatalf("processor %d: done %v, err %v", i, p.done, p.Err())
		}
	}
	if observed && (env.Probe.Timeline().Events() == 0 || len(env.Collect.Analyze(env.Kernel.Now()).Waits) == 0) {
		t.Fatal("the observed run recorded no spans or no waits")
	}
	return after.Mallocs - before.Mallocs, uint64(math.Round(n.hopHist.Mean() * float64(n.hopHist.Count())))
}

// Observing a run must cost no allocation per packet-hop: link reasons and
// the span name are interned when the network is built, and spans go to
// chunked records. What the observed run allocates beyond the plain one —
// three per link channel for its names and sampler, the other
// registrations, the chunks — must stay under 0.05 per hop; building a
// reason's text per contended hop costs about 0.5 per hop on this exchange.
func TestObservedExchangeAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	plain, hops := runMeshExchange(t, false)
	observed, observedHops := runMeshExchange(t, true)
	if hops != observedHops || hops == 0 {
		t.Fatalf("packet-hops: plain %d, observed %d", hops, observedHops)
	}
	perHop := (float64(observed) - float64(plain)) / float64(hops)
	t.Logf("%d packet-hops; allocations plain %d, observed %d: %.4f per hop", hops, plain, observed, perHop)
	if perHop > 0.05 {
		t.Errorf("observing allocates %.4f times per packet-hop; want at most 0.05", perHop)
	}
}
