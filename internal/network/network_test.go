package network

import (
	"fmt"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
)

func ringConfig(sw router.Switching) Config {
	return Config{
		Topology:     topology.Config{Kind: topology.Ring, Nodes: 4},
		Router:       router.Config{Switching: sw, RoutingDelay: 2, MaxPacket: 4096, HeaderBytes: 0},
		Link:         LinkConfig{BytesPerCycle: 8, PropDelay: 1},
		SendOverhead: 3,
		RecvOverhead: 2,
		AckBytes:     8,
	}
}

func mustNet(t *testing.T, k *pearl.Kernel, cfg Config) *Network {
	t.Helper()
	n, err := New(sim.Env{Kernel: k}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAsyncSendLatencySAF(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	var recvAt pearl.Time
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 64, 0, "hi", false)
		// Async: back after the send overhead.
		if p.Now() != 3 {
			t.Errorf("async send returned at %d, want 3", p.Now())
		}
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		m := n.Node(1).Recv(p, 0, 0)
		recvAt = p.Now()
		if m.Payload != "hi" {
			t.Errorf("payload = %v", m.Payload)
		}
	})
	k.Run()
	// Injection at 3; 1 hop SAF: routing 2 + prop 1 + transfer 8 = 11 -> 14.
	if recvAt != 14 {
		t.Errorf("recv completed at %d, want 14", recvAt)
	}
}

func TestZeroLoadLatencyMatchesFormula(t *testing.T) {
	for _, sw := range []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole} {
		sw := sw
		t.Run(sw.String(), func(t *testing.T) {
			k := pearl.NewKernel()
			cfg := ringConfig(sw)
			cfg.SendOverhead = 0
			cfg.RecvOverhead = 0
			n := mustNet(t, k, cfg)
			// 0 -> 2 on a 4-ring: 2 hops.
			var recvAt pearl.Time
			k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 2, 128, 0, nil, false) })
			k.Spawn("r", func(p *pearl.Process) {
				n.Node(2).Recv(p, 0, 0)
				recvAt = p.Now()
			})
			k.Run()
			want := cfg.Router.UncontendedLatency(128, 2, 8, 1)
			if recvAt != want {
				t.Errorf("latency = %d, want %d", recvAt, want)
			}
		})
	}
}

func TestSyncSendBlocksForAck(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	var sendDone pearl.Time
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 64, 0, nil, true)
		sendDone = p.Now()
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		n.Node(1).Recv(p, 0, 0)
	})
	k.Run()
	// Message delivered at 14 (see async test); ack (8 B): routing 2 + prop 1
	// + transfer 1 = 4 -> sender resumes at 18.
	if sendDone != 18 {
		t.Errorf("sync send completed at %d, want 18", sendDone)
	}
}

func TestSyncSendWaitsForLateReceiver(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	var done pearl.Time
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 64, 0, nil, true)
		done = p.Now()
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		p.Hold(100) // receiver arrives late
		n.Node(1).Recv(p, 0, 0)
	})
	k.Run()
	// Message arrives at 14 but is only accepted at 102 (recv overhead 2
	// after hold 100); ack takes 4 -> 106.
	if done != 106 {
		t.Errorf("sync send completed at %d, want 106", done)
	}
}

func TestRecvAnyEarliestArrivalWins(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	cfg.SendOverhead = 0
	n := mustNet(t, k, cfg)
	var src int32
	k.Spawn("far", func(p *pearl.Process) { n.Node(2).Send(p, 0, 64, 0, "far", false) })   // 2 hops
	k.Spawn("near", func(p *pearl.Process) { n.Node(1).Send(p, 0, 64, 0, "near", false) }) // 1 hop
	k.Spawn("receiver", func(p *pearl.Process) {
		m := n.Node(0).Recv(p, ops.AnyPeer, 0)
		src = int32(m.Src)
	})
	k.Run()
	if src != 1 {
		t.Errorf("recv-any matched node %d, want 1 (nearest arrives first)", src)
	}
}

func TestTagMatching(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	n := mustNet(t, k, cfg)
	var first, second any
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 8, 7, "tag7", false)
		n.Node(0).Send(p, 1, 8, 9, "tag9", false)
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		// Receive out of arrival order by tag.
		second = n.Node(1).Recv(p, 0, 9).Payload
		first = n.Node(1).Recv(p, 0, 7).Payload
	})
	k.Run()
	if first != "tag7" || second != "tag9" {
		t.Errorf("tag matching wrong: %v / %v", first, second)
	}
}

func TestMultiPacketMessage(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	cfg.Router.MaxPacket = 64
	cfg.SendOverhead = 0
	n := mustNet(t, k, cfg)
	var recvAt pearl.Time
	k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 1, 256, 0, nil, false) })
	k.Spawn("r", func(p *pearl.Process) { n.Node(1).Recv(p, 0, 0); recvAt = p.Now() })
	k.Run()
	if n.Packets() != 4 {
		t.Errorf("packets = %d, want 4", n.Packets())
	}
	// 4 packets of 64B share one link: serialised transfers of 8 cycles each
	// behind routing+prop; last packet completes at 2+1+4*8 = wait, each
	// packet holds the link for routing+prop+transfer = 11, FIFO: 44.
	if recvAt != 44 {
		t.Errorf("message done at %d, want 44", recvAt)
	}
}

func TestSelfSendIsLocalCopy(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	cfg.SendOverhead = 0
	cfg.RecvOverhead = 0
	cfg.LocalBytesPerCycle = 8
	n := mustNet(t, k, cfg)
	var recvAt pearl.Time
	k.Spawn("node", func(p *pearl.Process) {
		n.Node(2).Send(p, 2, 64, 0, "self", false)
		m := n.Node(2).Recv(p, 2, 0)
		recvAt = p.Now()
		if m.Payload != "self" {
			t.Error("lost payload")
		}
	})
	k.Run()
	if recvAt != 8 {
		t.Errorf("self-send completed at %d, want 8 (64/8 copy)", recvAt)
	}
	if n.Packets() != 0 {
		t.Error("self-send entered the network")
	}
}

func TestARecvOverlap(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	cfg.RecvOverhead = 0
	n := mustNet(t, k, cfg)
	var postedAt, waitedAt pearl.Time
	k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 1, 64, 0, nil, false) })
	k.Spawn("r", func(p *pearl.Process) {
		n.Node(1).PostRecv(p, 0, 0, 1)
		postedAt = p.Now() // immediate
		p.Hold(5)          // overlapped computation
		n.Node(1).WaitRecv(p, 1)
		waitedAt = p.Now()
	})
	k.Run()
	if postedAt != 0 {
		t.Errorf("post blocked until %d", postedAt)
	}
	if waitedAt != 14 {
		t.Errorf("wait completed at %d, want 14", waitedAt)
	}
}

func TestLinkContentionSerialises(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	cfg.SendOverhead = 0
	cfg.RecvOverhead = 0
	n := mustNet(t, k, cfg)
	var t1, t2 pearl.Time
	// Two messages over the same directed link 0->1.
	k.Spawn("s", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 64, 1, nil, false)
		n.Node(0).Send(p, 1, 64, 2, nil, false)
	})
	k.Spawn("r", func(p *pearl.Process) {
		n.Node(1).Recv(p, 0, 1)
		t1 = p.Now()
		n.Node(1).Recv(p, 0, 2)
		t2 = p.Now()
	})
	k.Run()
	if t1 != 11 || t2 != 22 {
		t.Errorf("t1=%d t2=%d, want 11/22 (link serialised)", t1, t2)
	}
}

func TestWormholeHoldsPath(t *testing.T) {
	// On a 1x4-ish path (use mesh 4x1), a worm from 0 to 3 holds links
	// 0->1,1->2,2->3 until delivery; a second worm 0->1 must wait for the
	// first to fully deliver under wormhole, but only for the body drain
	// under VCT. With a big packet, the difference is visible.
	lat := func(sw router.Switching) pearl.Time {
		k := pearl.NewKernel()
		cfg := Config{
			Topology:     topology.Config{Kind: topology.Mesh2D, DimX: 4, DimY: 1},
			Router:       router.Config{Switching: sw, RoutingDelay: 1, MaxPacket: 65536},
			Link:         LinkConfig{BytesPerCycle: 1, PropDelay: 0},
			SendOverhead: 0, RecvOverhead: 0,
		}
		n := mustNet(t, k, cfg)
		var t2 pearl.Time
		k.Spawn("s0", func(p *pearl.Process) {
			n.Node(0).Send(p, 3, 1000, 0, nil, false)
			p.Hold(1) // let the worm grab link 0->1 first
			n.Node(0).Send(p, 1, 10, 1, nil, false)
		})
		k.Spawn("r", func(p *pearl.Process) {
			n.Node(1).Recv(p, 0, 1)
			t2 = p.Now()
		})
		k.Run()
		return t2
	}
	wh := lat(router.Wormhole)
	vct := lat(router.VirtualCutThrough)
	if wh <= vct {
		t.Errorf("wormhole (%d) should block the trailing packet longer than VCT (%d)", wh, vct)
	}
}

func TestProcessorPingPong(t *testing.T) {
	k := pearl.NewKernel()
	cfg := ringConfig(router.StoreAndForward)
	n := mustNet(t, k, cfg)
	t0 := []ops.Op{
		ops.NewCompute(100),
		ops.NewSend(64, 1, 0),
		ops.NewRecv(1, 1),
	}
	t1 := []ops.Op{
		ops.NewRecv(0, 0),
		ops.NewCompute(50),
		ops.NewSend(64, 0, 1),
	}
	p0 := NewProcessor(n.Node(0), traceFromOps(t0))
	p1 := NewProcessor(n.Node(1), traceFromOps(t1))
	p0.Spawn(k)
	p1.Spawn(k)
	end := k.Run()
	if p0.Err() != nil || p1.Err() != nil {
		t.Fatalf("errors: %v / %v", p0.Err(), p1.Err())
	}
	if !p0.Done() || !p1.Done() {
		t.Fatal("processors not done")
	}
	if p0.ComputeCycles() != 100 || p1.ComputeCycles() != 50 {
		t.Fatalf("compute cycles %d/%d", p0.ComputeCycles(), p1.ComputeCycles())
	}
	if end == 0 {
		t.Fatal("no time advanced")
	}
	if n.Messages() < 2 {
		t.Fatalf("messages = %d", n.Messages())
	}
}

func TestProcessorRejectsInstructionOps(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	pr := NewProcessor(n.Node(0), traceFromOps([]ops.Op{ops.NewLoad(ops.MemWord, 0)}))
	pr.Spawn(k)
	k.Run()
	if pr.Err() == nil {
		t.Fatal("expected error for instruction-level op in task-level model")
	}
}

func TestDeadlockDiagnosable(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	pr := NewProcessor(n.Node(0), traceFromOps([]ops.Op{ops.NewRecv(1, 0)}))
	pr.Spawn(k)
	k.Run()
	if pr.Done() {
		t.Fatal("processor should be stuck")
	}
	if len(k.Blocked()) == 0 {
		t.Fatal("kernel should report blocked processes")
	}
}

// A packet in flight is a process whose name nobody formats until a
// diagnostic asks for it.
func TestPacketProcessNamedOnDemand(t *testing.T) {
	k := pearl.NewKernel()
	defer k.Close()
	cfg := ringConfig(router.StoreAndForward)
	cfg.Router.MaxPacket = 32
	n := mustNet(t, k, cfg)
	k.Spawn("sender", func(p *pearl.Process) { n.Node(0).Send(p, 2, 64, 0, nil, false) })
	k.RunUntil(5) // past the send overhead: both packets are on their first hop
	var names []string
	for _, p := range k.Blocked() {
		names = append(names, p.Name())
	}
	if got, want := fmt.Sprint(names), "[pkt.0->2.0 pkt.0->2.1]"; got != want {
		t.Errorf("processes in flight: %s, want %s", got, want)
	}
}

func TestNetworkStats(t *testing.T) {
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 1, 64, 0, nil, false) })
	k.Spawn("r", func(p *pearl.Process) { n.Node(1).Recv(p, 0, 0) })
	k.Run()
	s := n.Stats()
	if v, ok := s.Get("messages"); !ok || v != 1 {
		t.Fatalf("messages = %v", v)
	}
	if n.MessageLatency().Count() != 1 {
		t.Fatal("latency histogram empty")
	}
	avg, max := n.LinkUtilization()
	if avg <= 0 || max <= 0 {
		t.Fatalf("utilization %v/%v", avg, max)
	}
}

func TestValiantRoutingDelivers(t *testing.T) {
	cfg := Config{
		Topology: topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4},
		Router:   router.Config{Switching: router.VirtualCutThrough, Routing: router.Valiant, RoutingDelay: 1, MaxPacket: 4096},
		Link:     LinkConfig{BytesPerCycle: 4, PropDelay: 1},
		Seed:     7,
	}
	minCfg := cfg
	minCfg.Router.Routing = router.Minimal

	run := func(c Config) (delivered uint64, meanHops float64) {
		k := pearl.NewKernel()
		n := mustNet(t, k, c)
		// Adversarial-ish permutation: everyone sends across the machine.
		for i := 0; i < 16; i++ {
			i := i
			k.Spawn("s", func(p *pearl.Process) { n.Node(i).Send(p, (i+8)%16, 512, uint32(i), nil, false) })
			k.Spawn("r", func(p *pearl.Process) { n.Node((i+8)%16).Recv(p, int32(i), uint32(i)) })
		}
		k.Run()
		return n.Messages(), n.MeanHops()
	}
	dMin, hMin := run(minCfg)
	dVal, hVal := run(cfg)
	if dMin != 16 || dVal != 16 {
		t.Fatalf("delivered %d/%d, want 16/16", dMin, dVal)
	}
	// Valiant detours through random intermediates: strictly more hops.
	if hVal <= hMin {
		t.Fatalf("valiant mean hops %v should exceed minimal %v", hVal, hMin)
	}
}

func TestValiantRejectsWormhole(t *testing.T) {
	cfg := ringConfig(router.Wormhole)
	cfg.Router.Routing = router.Valiant
	if err := cfg.Router.Validate(); err == nil {
		t.Fatal("valiant + wormhole must be rejected")
	}
}

func TestValiantDeterministic(t *testing.T) {
	cfg := ringConfig(router.StoreAndForward)
	cfg.Router.Routing = router.Valiant
	cfg.Seed = 42
	run := func() pearl.Time {
		k := pearl.NewKernel()
		n := mustNet(t, k, cfg)
		k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 2, 256, 0, nil, false) })
		k.Spawn("r", func(p *pearl.Process) { n.Node(2).Recv(p, 0, 0) })
		return k.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic valiant: %d vs %d", a, b)
	}
}

func TestAdaptiveRoutingAvoidsHotLink(t *testing.T) {
	// On a hypercube every differing dimension is a minimal choice: when a
	// long transfer occupies the e-cube port, the adaptive router detours.
	mk := func(rt router.Routing) pearl.Time {
		k := pearl.NewKernel()
		cfg := Config{
			Topology: topology.Config{Kind: topology.Hypercube, Nodes: 8},
			Router:   router.Config{Switching: router.VirtualCutThrough, Routing: rt, RoutingDelay: 1, MaxPacket: 65536},
			Link:     LinkConfig{BytesPerCycle: 1, PropDelay: 0},
		}
		n := mustNet(t, k, cfg)
		var done pearl.Time
		// A big transfer hogs link 0->1 (dimension 0).
		k.Spawn("hog", func(p *pearl.Process) { n.Node(0).Send(p, 1, 8000, 0, nil, false) })
		// Shortly after, 0 -> 3 (dims 0 and 1): minimal e-cube goes via
		// dimension 0 first — congested; adaptive goes via dimension 1.
		k.Spawn("probe", func(p *pearl.Process) {
			p.Hold(5)
			n.Node(0).Send(p, 3, 100, 1, nil, false)
		})
		k.Spawn("sink1", func(p *pearl.Process) { n.Node(1).Recv(p, 0, 0) })
		k.Spawn("sink3", func(p *pearl.Process) {
			n.Node(3).Recv(p, 0, 1)
			done = p.Now()
		})
		k.Run()
		return done
	}
	minT := mk(router.Minimal)
	adT := mk(router.Adaptive)
	if adT >= minT {
		t.Fatalf("adaptive (%d) should beat minimal (%d) around the hot link", adT, minT)
	}
}

func TestAdaptiveStaysMinimal(t *testing.T) {
	k := pearl.NewKernel()
	cfg := Config{
		Topology: topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4},
		Router:   router.Config{Switching: router.StoreAndForward, Routing: router.Adaptive, RoutingDelay: 1, MaxPacket: 4096},
		Link:     LinkConfig{BytesPerCycle: 8, PropDelay: 1},
	}
	n := mustNet(t, k, cfg)
	k.Spawn("s", func(p *pearl.Process) { n.Node(0).Send(p, 15, 64, 0, nil, false) })
	k.Spawn("r", func(p *pearl.Process) { n.Node(15).Recv(p, 0, 0) })
	k.Run()
	// 0 -> 15 on the 4x4 torus is 2 hops (wrap both dimensions); adaptive
	// must not take more.
	if h := n.MeanHops(); h != 2 {
		t.Fatalf("mean hops = %v, want minimal 2", h)
	}
}

func TestLinkFlapRetransmitsAndDelivers(t *testing.T) {
	// A 2x1 mesh has a single physical link. Take it down for the start of
	// the run: the first packet is dropped, the sender's retransmission
	// timer retries through the outage, and delivery succeeds once the link
	// returns — the resilient path end to end.
	k := pearl.NewKernel()
	n := mustNet(t, k, Config{
		Topology:     topology.Config{Kind: topology.Mesh2D, DimX: 2, DimY: 1},
		Router:       router.Config{Switching: router.StoreAndForward, RoutingDelay: 2, MaxPacket: 4096, HeaderBytes: 0},
		Link:         LinkConfig{BytesPerCycle: 8, PropDelay: 1},
		SendOverhead: 3,
		RecvOverhead: 2,
		AckBytes:     8,
	})
	inj, err := fault.NewInjector(k, n.Topology(), fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 0, To: 500}}},
		Retrans: fault.Retrans{Timeout: 50, Backoff: 2, MaxRetries: 16},
	}, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachFaults(inj)

	var recvAt pearl.Time
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 64, 0, "through the outage", false)
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		m := n.Node(1).Recv(p, 0, 0)
		recvAt = p.Now()
		if m.Payload != "through the outage" {
			t.Errorf("payload = %v", m.Payload)
		}
	})
	k.Run()
	if recvAt < 500 {
		t.Fatalf("delivered at %d, inside the outage window", recvAt)
	}
	if n.Retransmits() == 0 {
		t.Error("delivery across an outage without retransmissions")
	}
	if n.Lost() != 0 {
		t.Errorf("%d packets abandoned", n.Lost())
	}
	if inj.Drops() == 0 {
		t.Error("no drops recorded for packets sent into the outage")
	}
}

func TestCrashedDestinationDropsUntilRestart(t *testing.T) {
	// Node 1 is down for the first stretch; a packet sent at time zero is
	// held by retransmission until the node restarts.
	k := pearl.NewKernel()
	n := mustNet(t, k, ringConfig(router.StoreAndForward))
	inj, err := fault.NewInjector(k, n.Topology(), fault.Schedule{
		Nodes:   []fault.NodeFault{{Node: 1, Window: fault.Window{From: 0, To: 300}}},
		Retrans: fault.Retrans{Timeout: 40, Backoff: 2, MaxRetries: 16},
	}, pearl.NewRNG(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachFaults(inj)
	var recvAt pearl.Time
	k.Spawn("sender", func(p *pearl.Process) {
		n.Node(0).Send(p, 1, 16, 0, nil, false)
	})
	k.Spawn("receiver", func(p *pearl.Process) {
		n.Node(1).Recv(p, 0, 0)
		recvAt = p.Now()
	})
	k.Run()
	if recvAt < 300 {
		t.Fatalf("delivered at %d while the destination was down", recvAt)
	}
	if n.Retransmits() == 0 {
		t.Error("no retransmissions across the crash window")
	}
}
