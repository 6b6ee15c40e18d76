package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// TestCrossLevelExact checks the hybrid model's claim (Fig. 2) where it is
// exact: on a machine of private nodes — one CPU each, no virtual shared
// memory — the time between two communication operations depends on the
// node alone, so the task-level trace a detailed run derives on one network
// replays on any other network to exactly what a detailed run there
// measures. Each case derives the traces on network A, then runs detailed
// and replays task-level on network B: cycles, every node's interface
// counters and the rendered network statistics must be equal. The replay
// side never runs the node model, so the detailed side is checked against
// a reference that shares none of its computational code.
func TestCrossLevelExact(t *testing.T) {
	mesh := func(c *machine.Config) {}
	onTorus := func(c *machine.Config) {
		c.Network.Topology = topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 2}
	}
	onCube := func(c *machine.Config) {
		c.Network.Topology = topology.Config{Kind: topology.Hypercube, Nodes: 8}
	}
	switching := func(topo func(*machine.Config), s router.Switching) func(*machine.Config) {
		return func(c *machine.Config) {
			topo(c)
			c.Network.Router.Switching = s
		}
	}
	slowLinks := func(c *machine.Config) {
		onTorus(c)
		c.Network.Router.Switching = router.VirtualCutThrough
		c.Network.Link.CyclesPerByte = 40
	}
	faulty := func(c *machine.Config) {
		c.Seed = 7
		c.Faults = &fault.Schedule{
			Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 2_000, To: 30_000}}},
			Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.05}},
			Retrans: fault.Retrans{Timeout: 300, Backoff: 2, MaxRetries: 16},
		}
	}
	networks := []struct {
		name string
		edit func(*machine.Config)
	}{
		{"mesh-saf", mesh},
		{"mesh-vct", switching(mesh, router.VirtualCutThrough)},
		{"mesh-wormhole", switching(mesh, router.Wormhole)},
		{"torus-wormhole", switching(onTorus, router.Wormhole)},
		{"torus-vct-slow", slowLinks},
		{"hypercube-saf", switching(onCube, router.StoreAndForward)},
		{"hypercube-vct", switching(onCube, router.VirtualCutThrough)},
		{"mesh-faults", faulty},
	}
	desc := func(pattern stochastic.PatternKind, bytes uint32, jitter, async bool) func(int) *stochastic.Desc {
		return func(nodes int) *stochastic.Desc {
			return &stochastic.Desc{
				Nodes: nodes, Level: stochastic.InstructionLevel, Seed: 5, Iterations: 3,
				Phases: []stochastic.Phase{
					{Instructions: 400, CV: 0.3, Comm: stochastic.Comm{Pattern: pattern, Bytes: bytes, Jitter: jitter, Async: async}},
					{Instructions: 150, Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 64}},
				},
			}
		}
	}
	type load struct {
		name  string
		nodes int // 8 unless given
		desc  func(nodes int) *stochastic.Desc
		prog  func(nodes int) *trace.Program
	}
	loads := []load{
		{name: "nearest", desc: desc(stochastic.NearestNeighbor, 512, false, false)},
		{name: "alltoall-async", desc: desc(stochastic.AllToAll, 256, true, true)},
		{name: "exchange-jitter", desc: desc(stochastic.Exchange, 1024, true, false)},
		{name: "random", desc: desc(stochastic.RandomPairs, 128, false, false)},
		{name: "hotspot-async", desc: desc(stochastic.Hotspot, 64, false, true)},
		{name: "jacobi", prog: func(n int) *trace.Program { return workload.Jacobi1D(n, 64, 3) }},
		{name: "matmul", prog: func(n int) *trace.Program { var out [][]float64; return workload.MatMul(n, 8, &out) }},
		{name: "allreduce", prog: func(n int) *trace.Program { return workload.RingAllreduce(n, 16, make([]float64, n)) }},
		{name: "transpose", prog: func(n int) *trace.Program { return workload.Transpose(n, 256) }},
		{name: "butterfly", prog: func(n int) *trace.Program { return workload.Butterfly(n, 128, 2) }},
		{name: "pingpong", nodes: 2, prog: func(int) *trace.Program { return workload.PingPong(16, 512) }},
	}
	// Network A is the first of the table; B runs through the rest.
	for _, ld := range loads {
		for _, nb := range networks[1:] {
			t.Run(ld.name+"/"+nb.name, func(t *testing.T) {
				nodes := ld.nodes
				if nodes == 0 {
					nodes = 8
				}
				if nodes != 8 && nb.name != "mesh-vct" && nb.name != "mesh-faults" {
					t.Skip("a 2-node machine has only the mesh")
				}
				config := func(edit func(*machine.Config), mode machine.Mode) machine.Config {
					cfg := machine.T805Grid(nodes/2, 2)
					if nodes == 2 {
						cfg = machine.T805Grid(2, 1)
					}
					cfg.Mode = mode
					edit(&cfg)
					if nodes == 2 && cfg.Faults != nil {
						cfg.Faults.Links = nil
					}
					return cfg
				}
				run := func(cfg machine.Config, srcs []trace.Source, sinks []bytes.Buffer) *machine.Result {
					m, err := machine.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := range sinks {
						if err := m.SetTaskSink(i, &sinks[i]); err != nil {
							t.Fatal(err)
						}
					}
					var res *machine.Result
					switch {
					case srcs != nil:
						res, err = m.Run(srcs)
					case ld.desc != nil:
						res, err = m.RunStochastic(*ld.desc(nodes))
					default:
						res, err = m.RunProgram(ld.prog(nodes))
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := m.FlushTaskSinks(); err != nil {
						t.Fatal(err)
					}
					return res
				}
				sinks := make([]bytes.Buffer, nodes)
				run(config(networks[0].edit, machine.Detailed), nil, sinks)
				detailed := run(config(nb.edit, machine.Detailed), nil, nil)
				srcs := make([]trace.Source, nodes)
				for i := range srcs {
					srcs[i] = trace.FromReader(&sinks[i])
				}
				replay := run(config(nb.edit, machine.TaskLevel), srcs, nil)

				if detailed.Cycles != replay.Cycles {
					t.Errorf("detailed run %d cycles, task-level replay %d", detailed.Cycles, replay.Cycles)
				}
				d, r := crossLevelSets(t, detailed.Stats), crossLevelSets(t, replay.Stats)
				if len(d) != nodes+1 {
					t.Fatalf("detailed report has %d interface and network sets, want %d", len(d), nodes+1)
				}
				for name, want := range d {
					if got := r[name]; got != want {
						t.Errorf("%s: task-level replay\n%s\ndetailed run\n%s", name, got, want)
					}
				}
			})
		}
	}
}

// crossLevelSets renders the sets a detailed run and its task-level replay
// share: every node's interface counters ("nifN") and the network's
// statistics, by name.
func crossLevelSets(t *testing.T, root *stats.Set) map[string]string {
	t.Helper()
	out := map[string]string{}
	var walk func(s *stats.Set)
	walk = func(s *stats.Set) {
		for _, sub := range s.Subsets {
			if strings.HasPrefix(sub.Name, "nif") || strings.HasPrefix(sub.Name, "network ") {
				var buf bytes.Buffer
				if err := stats.RenderSet(&buf, sub); err != nil {
					t.Fatal(err)
				}
				if _, dup := out[sub.Name]; dup {
					t.Fatalf("two sets named %s", sub.Name)
				}
				out[sub.Name] = buf.String()
				continue
			}
			walk(sub)
		}
	}
	walk(root)
	if len(out) == 0 {
		t.Fatal(fmt.Errorf("no interface or network sets in %s", root.Name))
	}
	return out
}
