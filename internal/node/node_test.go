package node

import (
	"bytes"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/cpu"
	"mermaid/internal/memory"
	"mermaid/internal/network"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

func nodeConfig(cpus int) Config {
	coh := cache.NoCoherence
	if cpus > 1 {
		coh = cache.Snoopy
	}
	return Config{
		Hierarchy: cache.HierarchyConfig{
			CPUs:                cpus,
			Private:             []cache.Config{{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1, Write: cache.WriteBack}},
			Coherence:           coh,
			CacheToCacheLatency: 2,
			Bus:                 bus.Config{Width: 8, ArbitrationDelay: 1},
			Memory:              memory.Config{ReadLatency: 5, WriteLatency: 5, BytesPerCycle: 8, Ports: 1},
		},
		Timing: cpu.DefaultTiming(),
	}
}

func netConfig() network.Config {
	return network.Config{
		Topology:     topology.Config{Kind: topology.Ring, Nodes: 2},
		Router:       router.Config{Switching: router.StoreAndForward, RoutingDelay: 2, MaxPacket: 4096},
		Link:         network.LinkConfig{BytesPerCycle: 8, PropDelay: 1},
		SendOverhead: 3,
		RecvOverhead: 2,
		AckBytes:     8,
	}
}

func TestSharedMemoryNodeTwoCPUs(t *testing.T) {
	k := pearl.NewKernel()
	n, err := New(sim.Env{Kernel: k, RNG: pearl.NewRNG(1)}, Params{ID: 0, Cfg: nodeConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	// CPU0 writes a line; CPU1 reads it: coherence must kick in.
	n.Run(0, trace.FromOps([]ops.Op{ops.NewStore(ops.MemWord, 0x100)}))
	n.Run(1, trace.FromOps([]ops.Op{
		ops.NewArith(ops.Add, ops.TypeInt), // small skew so CPU0 writes first
		ops.NewArith(ops.Add, ops.TypeInt),
		ops.NewLoad(ops.MemWord, 0x100),
	}))
	k.Run()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if len(n.Blocked()) != 0 {
		t.Fatal("node not done")
	}
	c0 := n.Stats().Lookup("memory-hierarchy", "node0.cpu0.L1")
	downgrades, _ := c0.Get("snoop downgrades")
	invalidations, _ := c0.Get("snoop invalidations")
	if downgrades == 0 && invalidations == 0 {
		t.Error("no coherence activity observed")
	}
}

func TestCommWithoutNetworkFails(t *testing.T) {
	k := pearl.NewKernel()
	n, err := New(sim.Env{Kernel: k}, Params{ID: 0, Cfg: nodeConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0, trace.FromOps([]ops.Op{ops.NewSend(64, 1, 0)}))
	k.Run()
	if n.Err() == nil {
		t.Fatal("expected error for send on shared-memory node")
	}
}

func buildTwoNodeMachine(t *testing.T, k *pearl.Kernel) (*network.Network, []*Node) {
	t.Helper()
	net, err := network.New(sim.Env{Kernel: k}, netConfig())
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := New(sim.Env{Kernel: k, RNG: pearl.NewRNG(uint64(i + 1))}, Params{ID: i, Cfg: nodeConfig(1), NIF: net.Node(i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return net, nodes
}

func TestDetailedPingPong(t *testing.T) {
	k := pearl.NewKernel()
	net, nodes := buildTwoNodeMachine(t, k)
	nodes[0].Run(0, trace.FromOps([]ops.Op{
		ops.NewLoad(ops.MemWord, 0x1000),
		ops.NewArith(ops.Add, ops.TypeInt),
		ops.NewSend(128, 1, 0),
		ops.NewRecv(1, 1),
	}))
	nodes[1].Run(0, trace.FromOps([]ops.Op{
		ops.NewRecv(0, 0),
		ops.NewArith(ops.Mul, ops.TypeInt),
		ops.NewSend(128, 0, 1),
	}))
	end := k.Run()
	for _, n := range nodes {
		if n.Err() != nil {
			t.Fatal(n.Err())
		}
		if len(n.Blocked()) != 0 {
			t.Fatal("node stuck")
		}
	}
	if msgs, _ := net.Stats().Get("messages"); msgs != 2 {
		t.Fatalf("messages = %v, want 2", msgs)
	}
	if end == 0 {
		t.Fatal("time did not advance")
	}
}

func TestTaskExtraction(t *testing.T) {
	k := pearl.NewKernel()
	_, nodes := buildTwoNodeMachine(t, k)
	var sink0 bytes.Buffer
	nodes[0].SetTaskSink(0, &sink0)
	nodes[0].Run(0, trace.FromOps([]ops.Op{
		ops.NewArith(ops.Div, ops.TypeInt), // 18 cycles of computation
		ops.NewSend(64, 1, 0),
		ops.NewArith(ops.Add, ops.TypeInt), // 1 cycle
		ops.NewRecv(1, 1),
	}))
	nodes[1].Run(0, trace.FromOps([]ops.Op{
		ops.NewRecv(0, 0),
		ops.NewSend(64, 0, 1),
	}))
	k.Run()
	if err := nodes[0].Err(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].FlushTaskSinks(); err != nil {
		t.Fatal(err)
	}
	task, err := ops.ReadAll(&sink0)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: compute(18), send, compute(1), recv.
	if len(task) != 4 {
		t.Fatalf("task trace = %v", task)
	}
	if task[0].Kind != ops.Compute || task[0].Dur != 18 {
		t.Fatalf("task[0] = %v, want compute 18", task[0])
	}
	if task[1].Kind != ops.Send {
		t.Fatalf("task[1] = %v", task[1])
	}
	if task[2].Kind != ops.Compute || task[2].Dur != 1 {
		t.Fatalf("task[2] = %v, want compute 1", task[2])
	}
	if task[3].Kind != ops.Recv {
		t.Fatalf("task[3] = %v", task[3])
	}
}

func TestExecutionDrivenProgramExchangesData(t *testing.T) {
	run := func() (pearl.Time, any) {
		k := pearl.NewKernel()
		_, nodes := buildTwoNodeMachine(t, k)
		var received any
		prog := &trace.Program{
			Threads: 2,
			Body: func(th *trace.Thread) {
				switch th.ID() {
				case 0:
					for i := 0; i < 10; i++ {
						th.Emit(ops.NewLoad(ops.MemWord, uint64(0x1000+8*i)))
					}
					th.Send(1, 256, 0, []int{1, 2, 3})
				case 1:
					v := th.Recv(0, 0)
					received = v
					th.Emit(ops.NewStore(ops.MemWord, 0x2000))
				}
			},
		}
		threads := prog.Start()
		nodes[0].Run(0, threads[0])
		nodes[1].Run(0, threads[1])
		end := k.Run()
		for _, n := range nodes {
			if n.Err() != nil {
				t.Fatal(n.Err())
			}
			if len(n.Blocked()) != 0 {
				t.Fatal("node stuck")
			}
		}
		return end, received
	}
	end1, recv1 := run()
	end2, recv2 := run()
	if end1 != end2 {
		t.Fatalf("nondeterministic: %d vs %d cycles", end1, end2)
	}
	v1, ok := recv1.([]int)
	if !ok || len(v1) != 3 || v1[2] != 3 {
		t.Fatalf("payload = %v", recv1)
	}
	if v2 := recv2.([]int); v2[0] != v1[0] {
		t.Fatal("payload mismatch across runs")
	}
}

func TestExecutionDrivenRecvAnyFeedback(t *testing.T) {
	// Node 0 on a 3-ring receives from any; nodes 1 and 2 send
	// simultaneously. Node 1 is one hop away, node 2 is also one hop on a
	// 3-ring... use a 4-node ring so distances differ: node 1 (1 hop) and
	// node 2 (2 hops).
	k := pearl.NewKernel()
	cfg := netConfig()
	cfg.Topology.Nodes = 4
	net, err := network.New(sim.Env{Kernel: k}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n, err := New(sim.Env{Kernel: k}, Params{ID: i, Cfg: nodeConfig(1), NIF: net.Node(i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	var matched int
	prog := &trace.Program{
		Threads: 4,
		Body: func(th *trace.Thread) {
			switch th.ID() {
			case 0:
				src, _ := th.RecvAny(0)
				matched = src
				// Drain the second message.
				th.RecvAny(0)
			case 1:
				th.ASend(0, 64, 0, "near")
			case 2:
				th.ASend(0, 64, 0, "far")
			case 3:
			}
		},
	}
	threads := prog.Start()
	for i := range nodes {
		nodes[i].Run(0, threads[i])
	}
	k.Run()
	for _, n := range nodes {
		if n.Err() != nil {
			t.Fatal(n.Err())
		}
	}
	if matched != 1 {
		t.Fatalf("recv-any matched node %d, want 1 (nearest on the target architecture)", matched)
	}
}

func TestNodeStats(t *testing.T) {
	k := pearl.NewKernel()
	n, err := New(sim.Env{Kernel: k}, Params{ID: 0, Cfg: nodeConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0, trace.FromOps([]ops.Op{ops.NewLoad(ops.MemWord, 0)}))
	k.Run()
	s := n.Stats()
	if v, ok := s.Get("instructions"); !ok || v != 1 {
		t.Fatalf("instructions = %v", v)
	}
	if s.Lookup("cpu0") == nil || s.Lookup("memory-hierarchy") == nil {
		t.Fatal("missing subsets")
	}
}

func TestFileDrivenAsyncRecv(t *testing.T) {
	// ARecv/WaitRecv driven from a plain (non-execution-driven) trace: the
	// node posts the receive, overlaps computation, then waits.
	k := pearl.NewKernel()
	_, nodes := buildTwoNodeMachine(t, k)
	ar := ops.NewARecv(1, 5)
	ar.Addr = 77
	nodes[0].Run(0, trace.FromOps([]ops.Op{
		ar,
		ops.NewArith(ops.Div, ops.TypeInt), // overlapped work
		ops.NewWaitRecv(77),
	}))
	nodes[1].Run(0, trace.FromOps([]ops.Op{
		ops.NewASend(64, 0, 5),
	}))
	k.Run()
	for _, n := range nodes {
		if n.Err() != nil {
			t.Fatal(n.Err())
		}
		if len(n.Blocked()) != 0 {
			t.Fatal("node stuck")
		}
	}
}

func TestMixedComputeOpInInstructionTrace(t *testing.T) {
	// A compute(duration) event inside an instruction-level trace advances
	// time (mixed-abstraction traces are permitted).
	k := pearl.NewKernel()
	n, err := New(sim.Env{Kernel: k}, Params{ID: 0, Cfg: nodeConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0, trace.FromOps([]ops.Op{ops.NewCompute(123)}))
	end := k.Run()
	if end != 123 || n.Err() != nil {
		t.Fatalf("end = %d, err = %v", end, n.Err())
	}
}
