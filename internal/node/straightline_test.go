package node_test

import (
	"bytes"
	"fmt"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// The stackless path of Node.Run — a stream's computation, memory hierarchy
// included, executed as one long pearl.Process.HoldWhile chain driven from the
// node's step function — must be invisible: a machine whose nodes decline it,
// so that every operation goes through exec and cpu.CPU.Exec and blocks its
// process in a chain of its own, has to produce the same bytes in every
// artifact the workbench writes, on every kind of node and under every
// executor. (What both must reproduce of the hierarchy that blocked a process
// at every hold is pinned by TestDetailedDigests.)

// mixedTrace draws n instructions exercising every case of cpu.CPU.Begin:
// fetches, loads and stores over a private window that overflows the inner
// cache (hits and misses) and a window other CPUs of the node share
// (coherence traffic), accesses straddling a line, every arithmetic and
// control kind, and task-level compute operations mixed in.
func mixedTrace(r *pearl.RNG, n int, private uint64) []ops.Op {
	const shared = 0x2000_0000
	var out []ops.Op
	for i := 0; i < n; i++ {
		out = append(out, ops.NewIFetch(0x40_0000+private>>8+uint64(i%96)*4))
		addr := private + uint64(r.Intn(12<<10))&^3
		switch r.Intn(10) {
		case 0:
			addr = shared + uint64(r.Intn(1<<10))&^3
		case 1:
			addr |= 30 // a word at offset 30 straddles 16- and 32-byte lines
		}
		switch r.Intn(12) {
		case 0, 1, 2:
			out = append(out, ops.NewLoad(ops.MemWord, addr))
		case 3, 4:
			out = append(out, ops.NewStore(ops.MemWord, addr))
		case 5:
			out = append(out, ops.NewArith(ops.Add, ops.TypeInt))
		case 6:
			out = append(out, ops.NewArith(ops.Mul, ops.TypeDouble))
		case 7:
			out = append(out, ops.NewArith(ops.Div, ops.TypeLong))
		case 8:
			out = append(out, ops.NewBranch(0x40_0000))
		case 9:
			out = append(out, ops.NewCall(0x40_1000), ops.NewRet(0x40_0000))
		case 10:
			out = append(out, ops.NewLoadConst(ops.TypeFloat))
		case 11:
			out = append(out, ops.NewCompute(int64(r.Intn(40))))
		}
	}
	return out
}

// ringTraces builds one stream per CPU: rounds of mixed computation, with
// CPU 0 of every node passing a token around the ring of nodes in between
// (synchronously on even rounds, with asynchronous sends on odd ones).
func ringTraces(nodes, cpus, rounds, instrs int) [][]ops.Op {
	traces := make([][]ops.Op, nodes*cpus)
	for s := range traces {
		r := pearl.NewRNG(uint64(1000 + s))
		nd, cpu := s/cpus, s%cpus
		for round := 0; round < rounds; round++ {
			traces[s] = append(traces[s], mixedTrace(r, instrs, 0x1000_0000+uint64(s)<<20)...)
			if cpu != 0 || nodes == 1 {
				continue
			}
			next, prev := int32((nd+1)%nodes), int32((nd+nodes-1)%nodes)
			tag := uint32(round)
			send := ops.NewSend(512, next, tag)
			if round%2 == 1 {
				send = ops.NewASend(512, next, tag)
			}
			if nd == nodes-1 {
				traces[s] = append(traces[s], ops.NewRecv(prev, tag), send)
			} else {
				traces[s] = append(traces[s], send, ops.NewRecv(prev, tag))
			}
		}
	}
	return traces
}

func sources(traces [][]ops.Op) []trace.Source {
	srcs := make([]trace.Source, len(traces))
	for i, tr := range traces {
		srcs[i] = trace.FromOps(tr)
	}
	return srcs
}

// artifacts runs cfg once and renders everything the workbench can write
// about the run. Single-kernel runs carry the full instrumentation — the
// timeline, the bottleneck collector and a metrics sampler ticking through
// the run; sharded runs what the parallel engine supports.
func artifacts(t *testing.T, cfg machine.Config, decline bool, run func(*machine.Machine) (*machine.Result, error)) map[string]string {
	t.Helper()
	pb := probe.New(probe.Config{Timeline: true})
	env := sim.NewEnv(cfg.Seed, pb)
	if cfg.Shards == 0 {
		env = env.WithCollector(analysis.New())
	}
	m, err := machine.Build(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if decline {
		for _, nd := range m.Nodes() {
			nd.DeclineStraightLine()
		}
	}
	finish := func(pearl.Time) {}
	if cfg.Shards == 0 {
		if finish, err = pb.Registry().StartSampler(m.Kernel(), 250, pb.Registry().Sample); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	finish(res.Cycles)
	out := map[string]string{
		"totals": fmt.Sprintf("%d cycles, %d events, %d instructions", res.Cycles, res.Events, res.Instructions),
	}
	render := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.String()
	}
	render("report", func(b *bytes.Buffer) error { return stats.RenderSet(b, res.Stats) })
	render("timeline", func(b *bytes.Buffer) error { return m.MergedTimeline().WriteJSON(b) })
	if res.Analysis != nil {
		render("bottleneck text", func(b *bytes.Buffer) error { return res.Analysis.Render(b) })
		render("bottleneck JSON", func(b *bytes.Buffer) error { return res.Analysis.WriteJSON(b) })
		render("metrics CSV", func(b *bytes.Buffer) error { return pb.Registry().WriteCSV(b) })
	}
	return out
}

func TestStraightLineIsInvisible(t *testing.T) {
	stream := func(traces [][]ops.Op) func(*machine.Machine) (*machine.Result, error) {
		return func(m *machine.Machine) (*machine.Result, error) { return m.Run(sources(traces)) }
	}
	storeBuffered := machine.PPC601Machine()
	storeBuffered.Name = "ppc601-store-buffer"
	for i := range storeBuffered.Node.Hierarchy.Private {
		storeBuffered.Node.Hierarchy.Private[i].Write = cache.WriteThrough
	}
	storeBuffered.Node.Hierarchy.StoreBuffer = 4
	splitL1 := machine.PPC601Machine()
	splitL1.Name = "ppc601-split-l1"
	splitL1.Node.Hierarchy.SplitL1 = true
	splitL1.Node.Hierarchy.L1I = cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, HitLatency: 1}
	faulted := machine.T805Grid(2, 2)
	faulted.Name = "t805-grid-faulted"
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 60_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	}

	contended := machine.PPC601SMP(4)
	contended.Name = "ppc601-smp-contended"
	directory := machine.PPC601SMP(4)
	directory.Name = "ppc601-directory"
	directory.Node.Hierarchy.Coherence = cache.Directory
	directory.Node.Hierarchy.DirLookupLatency = 2
	directory.Node.Hierarchy.DirMessageLatency = 3
	directory.Node.Hierarchy.Bus = bus.Config{Kind: bus.KindCrossbar, Width: 8, ArbitrationDelay: 1, Banks: 4, InterleaveBytes: 64}

	cases := []struct {
		cfg    machine.Config
		shards []int // 0 is the single-kernel engine
		run    func(*machine.Machine) (*machine.Result, error)
	}{
		{machine.T805Grid(2, 2), []int{0, 1, 2, 4}, stream(ringTraces(4, 1, 4, 400))},
		{faulted, []int{0, 1, 2, 4}, stream(ringTraces(4, 1, 4, 400))},
		{machine.PPC601Machine(), []int{0}, stream(ringTraces(1, 1, 1, 3000))},
		{storeBuffered, []int{0}, stream(ringTraces(1, 1, 1, 3000))},
		{splitL1, []int{0}, stream(ringTraces(1, 1, 1, 3000))},
		{machine.PPC601SMP(4), []int{0}, stream(ringTraces(1, 4, 1, 1500))},
		{contended, []int{0}, stream(sharingTraces(4, 1500))},
		{directory, []int{0}, stream(ringTraces(1, 4, 1, 1500))},
		{machine.HybridCluster(2, 2, 2), []int{0}, stream(ringTraces(4, 2, 3, 400))},
		{machine.DSMCluster(2, 2), []int{0}, func(m *machine.Machine) (*machine.Result, error) {
			return m.RunProgram(workload.JacobiDSM(4, 64, 3))
		}},
	}
	for _, tc := range cases {
		for _, shards := range tc.shards {
			cfg := tc.cfg
			cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", cfg.Name, shards), func(t *testing.T) {
				blocking := artifacts(t, cfg, true, tc.run)
				stackless := artifacts(t, cfg, false, tc.run)
				for name, want := range blocking {
					if got := stackless[name]; got != want {
						t.Errorf("%s differs (%d bytes blocking, %d stackless)", name, len(want), len(got))
						if len(want) < 4000 {
							t.Logf("blocking:\n%s\nstackless:\n%s", want, got)
						}
					}
				}
				if len(stackless) != len(blocking) {
					t.Errorf("%d artifacts stackless, %d blocking", len(stackless), len(blocking))
				}
				t.Log(stackless["totals"])
			})
		}
	}
}
