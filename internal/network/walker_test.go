package network

import (
	"testing"
	"time"
	"unsafe"

	"mermaid/internal/ops"
	"mermaid/internal/router"
	"mermaid/internal/topology"
)

// torusExchange is the walker's own workload: on a 16x16 wormhole torus every
// node sends 32 KiB asynchronously to its antipode, in 1 KiB packets, for 4
// rounds — 524,288 packet-hops by worms of 16 channels that change virtual
// channel at the datelines, every one crossing the contended bisection.
func torusExchange() (Config, [][]ops.Op) {
	const side, rounds = 16, 4
	cfg := Config{
		Topology:     topology.Config{Kind: topology.Torus2D, DimX: side, DimY: side},
		Router:       router.Config{Switching: router.Wormhole, RoutingDelay: 2, MaxPacket: 1024, HeaderBytes: 8},
		Link:         LinkConfig{BytesPerCycle: 2, PropDelay: 1},
		SendOverhead: 50,
		RecvOverhead: 50,
		AckBytes:     8,
	}
	antipode := func(i int) int { return (i/side+side/2)%side*side + (i%side+side/2)%side }
	return cfg, exchangeStreams(side*side, rounds, 32<<10, antipode)
}

// The packet walker allocates nothing per packet or per hop: channel state,
// waiter queues and worms live in per-channel records and a packet slab, and
// a message is packetised without a slice. What building and running the
// exchange allocates — the network, the processors, the slab's chunks, the
// messages — must stay under 0.05 per packet-hop.
func TestWormholeExchangeAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg, streams := torusExchange()
	allocs, hops := runExchange(t, cfg, streams, false)
	if hops != 524_288 {
		t.Fatalf("%d packet-hops, want 524288", hops)
	}
	perHop := float64(allocs) / float64(hops)
	t.Logf("%d packet-hops, %d allocations: %.4f per hop", hops, allocs, perHop)
	if perHop > 0.05 {
		t.Errorf("the walker allocates %.4f times per packet-hop; want at most 0.05", perHop)
	}
}

// BenchmarkWormholeExchange times the torus exchange, build and run, and
// reports it per packet-hop.
func BenchmarkWormholeExchange(b *testing.B) {
	cfg, streams := torusExchange()
	b.ReportAllocs()
	var hops uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, h := runExchange(b, cfg, streams, false)
		elapsed += time.Since(start)
		hops += h
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(hops), "ns/hop")
}

// A channel record stays within 32 bytes: a 16,384-node 3-D torus has
// 196,608 of them.
func TestChannelRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(vchan{}); size > 32 {
		t.Errorf("a channel record takes %d bytes; want at most 32", size)
	}
}
