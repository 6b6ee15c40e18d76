package machine

import (
	"bytes"
	"strings"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// runEngineReport builds cfg on the named engine and runs the stochastic
// description, returning the rendered stats report (with the probe registry
// dump included, so metric names and ordering are compared too).
func runEngineReport(t *testing.T, cfg Config, engine string, desc stochastic.Desc) string {
	t.Helper()
	cfg.Engine = engine
	pb := probe.New(probe.Config{})
	m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(cfg.Seed), Probe: pb}, cfg)
	if err != nil {
		t.Fatalf("engine=%s: build: %v", engine, err)
	}
	res, err := m.RunStochastic(desc)
	if err != nil {
		t.Fatalf("engine=%s: run: %v", engine, err)
	}
	var report bytes.Buffer
	if err := stats.RenderSet(&report, res.Stats); err != nil {
		t.Fatalf("engine=%s: render: %v", engine, err)
	}
	return report.String()
}

// checkEngineIdentity requires the process and compact engines to produce
// byte-identical reports for the same machine and workload — the equivalence
// contract of the compact engine (see compact.go).
func checkEngineIdentity(t *testing.T, cfg Config, desc stochastic.Desc) {
	t.Helper()
	ref := runEngineReport(t, cfg, EngineProcess, desc)
	if !strings.Contains(ref, "messages") {
		t.Fatalf("reference report looks empty:\n%s", ref)
	}
	got := runEngineReport(t, cfg, EngineCompact, desc)
	if got != ref {
		t.Errorf("compact engine report differs from process engine\n--- process ---\n%s\n--- compact ---\n%s", ref, got)
	}
}

func taskDesc(nodes int, seed uint64, phases ...stochastic.Phase) stochastic.Desc {
	return stochastic.Desc{
		Name: "engine-identity", Nodes: nodes, Level: stochastic.TaskLevel,
		Seed: seed, Iterations: 6, Phases: phases,
	}
}

func TestCompactEngineByteIdenticalSAF(t *testing.T) {
	// Store-and-forward, synchronous rendezvous traffic with load imbalance
	// and size jitter — the transputer-style machine.
	cfg := T805GridTaskLevel(4, 4)
	cfg.Seed = 42
	checkEngineIdentity(t, cfg, taskDesc(16, 11, stochastic.Phase{
		Duration: 2500, CV: 0.4,
		Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
	}))
}

func TestCompactEngineByteIdenticalVCTValiant(t *testing.T) {
	// Virtual cut-through with Valiant routing: the random intermediate
	// draws must land in the same RNG-stream order on both engines.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.VirtualCutThrough)
	cfg.Network.Router.Routing = router.Valiant
	cfg.Seed = 7
	checkEngineIdentity(t, cfg, taskDesc(16, 3, stochastic.Phase{
		Duration: 1200, CV: 0.2,
		Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 2048},
	}))
}

func TestCompactEngineByteIdenticalWormholeTorus3D(t *testing.T) {
	// Wormhole switching on a 3-D torus: multi-channel worms, dateline
	// virtual-channel switching and async (arecv/waitrecv) completion.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Torus3D, DimX: 3, DimY: 3, DimZ: 3}, 27, router.Wormhole)
	cfg.Seed = 5
	checkEngineIdentity(t, cfg, taskDesc(27, 9, stochastic.Phase{
		Duration: 2000, CV: 0.3,
		Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512, Async: true},
	}, stochastic.Phase{
		Duration: 800,
		Comm:     stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 128},
	}))
}

func TestCompactEngineByteIdenticalAdaptiveFatTree(t *testing.T) {
	// Adaptive routing on a fat-tree: port choice depends on instantaneous
	// channel load, so any event-order divergence shows up as a different
	// path mix.
	// 16 hosts plus 4+4 switches: fat-tree switches are addressable nodes.
	cfg := GenericTaskMachine(topology.Config{Kind: topology.FatTree, Arity: 4, Levels: 2}, 24, router.VirtualCutThrough)
	cfg.Network.Router.Routing = router.Adaptive
	cfg.Seed = 13
	checkEngineIdentity(t, cfg, taskDesc(24, 21, stochastic.Phase{
		Duration: 900, CV: 0.5,
		Comm: stochastic.Comm{Pattern: stochastic.Hotspot, Bytes: 4096, Jitter: true},
	}))
}

func TestCompactEngineByteIdenticalDragonfly(t *testing.T) {
	cfg := GenericTaskMachine(topology.Config{Kind: topology.Dragonfly, Routers: 2, Globals: 2, Groups: 5}, 10, router.Wormhole)
	cfg.Seed = 23
	checkEngineIdentity(t, cfg, taskDesc(10, 31, stochastic.Phase{
		Duration: 1500, CV: 0.3,
		Comm: stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 768},
	}))
}

func TestCompactEngineByteIdenticalUnderFaults(t *testing.T) {
	// Link down-windows, packet noise and retransmission: the lazy re-path
	// table, per-hop fate draws and backoff timers must fire identically.
	cfg := T805GridTaskLevel(3, 3)
	cfg.Seed = 99
	cfg.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 5_000, To: 400_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{
			Timeout:    300,
			Backoff:    2,
			MaxRetries: 12,
		},
	}
	checkEngineIdentity(t, cfg, taskDesc(9, 17, stochastic.Phase{
		Duration: 2000, CV: 0.4,
		Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
	}))
}

// A send to a node the network does not have is an error of the run, worded
// the same on both engines and naming the sender — not a panic.
func TestInvalidDestinationIsAnError(t *testing.T) {
	for _, engine := range []string{EngineProcess, EngineCompact} {
		cfg := T805GridTaskLevel(2, 2)
		cfg.Engine = engine
		m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]trace.Source, 4)
		for i := range srcs {
			srcs[i] = trace.FromOps(nil)
		}
		srcs[2] = trace.FromOps([]ops.Op{ops.NewCompute(10), ops.NewASend(64, 7, 0)})
		_, err = m.Run(srcs)
		want := "node 2 cpu 0 (rank 2): send to invalid destination 7 (the network has 4 nodes)"
		if err == nil || err.Error() != want {
			t.Errorf("engine=%s: err = %v, want %q", engine, err, want)
		}
	}
}

func TestCompactEngineAutoSelection(t *testing.T) {
	cfg := T805GridTaskLevel(2, 2)
	env := func() sim.Env {
		return sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(1), Probe: nil}
	}
	m, err := Build(env(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Compact() != nil || m.Network() == nil {
		t.Errorf("small task machine must default to the process engine")
	}
	cfg.Engine = EngineCompact
	m, err = Build(env(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Compact() == nil {
		t.Errorf("engine=compact must force the compact engine")
	}
	// Forcing compact with a timeline probe is a descriptive error, not a
	// silent fallback.
	pb := probe.New(probe.Config{Timeline: true})
	if _, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(1), Probe: pb}, cfg); err == nil {
		t.Errorf("compact engine with a timeline probe must be rejected")
	}
	// Detailed mode and shards reject the compact engine in Validate.
	bad := T805Grid(2, 2)
	bad.Engine = EngineCompact
	if err := bad.Validate(); err == nil {
		t.Errorf("detailed mode with engine=compact must be rejected")
	}
	bad = T805GridTaskLevel(2, 2)
	bad.Engine = EngineCompact
	bad.Shards = 2
	if err := bad.Validate(); err == nil {
		t.Errorf("shards with engine=compact must be rejected")
	}
}
