package machine

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// The table below pins what the network engines printed before they shared
// one traffic ledger (commit 852830c): SHA-256 over the rendered report
// with the registry's dump as its last set, the timeline JSON and the
// bottleneck JSON of seeded runs. The report no longer carries the dump, so
// the digest renders the registry's snapshot where it sat. The Matching entries were pinned at commit 1e0a5fd, while the
// compact engine still kept its own copy of NodeIf's matching rule. The
// engine/*/observed entries are what the per-process transport — one process
// per packet and per task-level node, then the only engine that carried the
// timeline and the collector — printed fully instrumented; the
// engine/*/plain entries are the compact engine's uninstrumented runs. Both
// are now the one single-kernel engine. A digest that moves means a counter,
// a metric name, a registration order, a span or a simulated time moved. The
// three detailed/T805Grid/<switching> entries were printed by the
// per-process transport too (commit d8329d7), to pin the detailed nodes'
// packets — under cut-through, adaptive routing, wormhole worms and a fault
// schedule — now that they walk as events. The detailed/* and shards/*
// entries were re-printed when CPU runners began to record one span per run
// of back-to-back waits: they are what commit c9229e9, which recorded each
// wait as a span of its own, prints with its timelines put through the
// reference coalescer of the node package's digest tests. The two
// engine/WormholeUnderFaults entries were printed by the packet walker that
// kept its waiters in a map and each worm's channels in a slice, the last
// tree before the walker's state became one record per channel. The five
// entries under faults and the shards/* entries were re-printed when fault
// accounting joined the report and the shards' merged registry left it.
// When the parallel engine narrowed to unobserved, fault-free task-level
// machines, the tree before it printed the kernel/* entries — the machines
// it had run on shards, observed on the single kernel (the third, Jacobi on
// a 2×2 T805 grid, is detailed/T805Grid(2,2)) — and the shards/TaskLevel/*
// entries without a probe.
var trafficDigests = map[string]string{
	"detailed/DSMCluster(2,2)":              "1c71488d4bb26d3400f95bc5",
	"detailed/HybridCluster(2,2,2)":         "9bdfc3c5cf844a08fc9a4ca0",
	"detailed/T805Grid(2,2)":                "e59a2d4c8d1b1472c88e62d5",
	"detailed/T805Grid(2,2)/VCTUnderFaults": "d112d4167c58233c927ee476",
	"detailed/T805Grid(3,3)/VCTAdaptive":    "467d2526dea9e68195dc53df",
	"detailed/T805Grid(3,3)/Wormhole":       "e7d3de6e574749bc1efe4bc2",
	"engine/AdaptiveFatTree/observed":       "6facbbf96f297e60971d2df1",
	"engine/AdaptiveFatTree/plain":          "830501e0a07162d1885b35d7",
	"engine/Dragonfly/observed":             "ad2a8dc631a75dcada901d10",
	"engine/Dragonfly/plain":                "8cac5cbbf4ecc2f4017df565",
	"engine/Matching/observed":              "f74c3992b79d38edef7536fe",
	"engine/Matching/plain":                 "ce9dbc4318b23a97983f4922",
	"engine/MatchingNoOverhead/observed":    "2c8913e8e289b0c247693306",
	"engine/MatchingNoOverhead/plain":       "08ec9d92faaa079fba38d572",
	"engine/SAF/observed":                   "d70134df49d71bb584e76121",
	"engine/SAF/plain":                      "acc724673a887fd8c9d50156",
	"engine/UnderFaults/observed":           "b6101f6aaea9ac09764c64c9",
	"engine/UnderFaults/plain":              "f625d3ac4f65f5c94d4bb071",
	"engine/VCTValiant/observed":            "aaf5710301ae157a01035c78",
	"engine/VCTValiant/plain":               "88435e6f6411aa5cc215f77e",
	"engine/WormholeTorus3D/observed":       "ed8071d04ebc8ad9f803f9da",
	"engine/WormholeTorus3D/plain":          "5a0b604871e0a177069d8b7d",
	"engine/WormholeUnderFaults/observed":   "28f37021b1c9896eaf7d3c3a",
	"engine/WormholeUnderFaults/plain":      "c79c4cae51d399bf900bad07",
	"kernel/PingPong":                       "7f4f6d2e7b2ded53ff0f69e4",
	"kernel/UnderFaults":                    "272449a954ae86feb1c6bfca",
	"shards/TaskLevel/1":                    "d314f8fb7c4a36c730921485",
	"shards/TaskLevel/2":                    "d314f8fb7c4a36c730921485",
	"shards/TaskLevel/4":                    "d314f8fb7c4a36c730921485",
}

// artifactDigest runs cfg, observed or with a bare probe, and hashes every
// artifact of the run. Observed means the timeline and the bottleneck
// collector. Shards refuse every observer, so a sharded run has no probe.
func artifactDigest(t *testing.T, cfg Config, observed bool, run func(*Machine) (*Result, error)) string {
	t.Helper()
	var pb *probe.Probe
	if cfg.Shards == 0 {
		pb = probe.New(probe.Config{Timeline: observed})
	}
	env := sim.NewEnv(cfg.Seed, pb)
	if observed {
		env = env.WithCollector(analysis.New())
	}
	m, err := Build(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range m.kernels() {
		if n := k.Switches(); n != 0 {
			t.Errorf("%s: %d switches; nothing in a machine runs on a stack of its own", cfg.Name, n)
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d cycles, %d events, %d instructions\n", res.Cycles, res.Events, res.Instructions)
	if err := stats.RenderSet(h, withRegistry(res.Stats, pb.Registry())); err != nil {
		t.Fatal(err)
	}
	if tl := m.MergedTimeline(); tl != nil {
		if err := tl.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	if res.Analysis != nil {
		if err := res.Analysis.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// ringStreams gives every CPU of a detailed machine a short instruction mix;
// CPU 0 of each node then passes one message per round around the ring of
// nodes, synchronous and asynchronous in turn.
func ringStreams(nodes, cpus, rounds int) []trace.Source {
	srcs := make([]trace.Source, nodes*cpus)
	for s := range srcs {
		r := pearl.NewRNG(uint64(500 + s))
		nd, base := s/cpus, 0x1000_0000+uint64(s)<<16
		var tr []ops.Op
		for round := 0; round < rounds; round++ {
			for i := 0; i < 200; i++ {
				switch addr := base + uint64(r.Intn(4096))&^3; r.Intn(3) {
				case 0:
					tr = append(tr, ops.NewLoad(ops.MemWord, addr))
				case 1:
					tr = append(tr, ops.NewStore(ops.MemWord, addr))
				default:
					tr = append(tr, ops.NewArith(ops.Mul, ops.TypeInt))
				}
			}
			if s%cpus != 0 {
				continue
			}
			next, prev, tag := int32((nd+1)%nodes), int32((nd+nodes-1)%nodes), uint32(round)
			send := ops.NewSend(256, next, tag)
			if round%2 == 1 {
				send = ops.NewASend(256, next, tag)
			}
			if nd == nodes-1 {
				tr = append(tr, ops.NewRecv(prev, tag), send)
			} else {
				tr = append(tr, send, ops.NewRecv(prev, tag))
			}
		}
		srcs[s] = trace.FromOps(tr)
	}
	return srcs
}

func TestTrafficDigests(t *testing.T) {
	got := make(map[string]string)
	for _, c := range engineCases() {
		for observed, label := range map[bool]string{true: "observed", false: "plain"} {
			s := c.streams
			got["engine/"+c.name+"/"+label] = artifactDigest(t, c.cfg, observed, func(m *Machine) (*Result, error) {
				res, _, err := runCounted(m, s)
				return res, err
			})
		}
	}
	for _, c := range kernelCases() {
		s := c.streams
		got["kernel/"+c.name] = artifactDigest(t, c.cfg, true, func(m *Machine) (*Result, error) {
			res, _, err := runCounted(m, s)
			return res, err
		})
	}
	task := taskShardCase()
	for _, shards := range []int{1, 2, 4} {
		cfg := task.cfg
		cfg.Shards = shards
		got[fmt.Sprintf("shards/%s/%d", task.name, shards)] = artifactDigest(t, cfg, false, func(m *Machine) (*Result, error) {
			res, _, err := runCounted(m, task.streams)
			return res, err
		})
	}
	got["detailed/T805Grid(2,2)"] = artifactDigest(t, T805Grid(2, 2), true, func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.Jacobi1D(4, 64, 3))
	})
	for name, cfg := range detailedFabricCases() {
		nodes := cfg.Nodes
		got[name] = artifactDigest(t, cfg, true, func(m *Machine) (*Result, error) {
			return m.RunProgram(workload.Jacobi1D(nodes, 128, 4))
		})
	}
	got["detailed/HybridCluster(2,2,2)"] = artifactDigest(t, HybridCluster(2, 2, 2), true, func(m *Machine) (*Result, error) {
		return m.Run(ringStreams(4, 2, 3))
	})
	got["detailed/DSMCluster(2,2)"] = artifactDigest(t, DSMCluster(2, 2), true, func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.JacobiDSM(4, 64, 3))
	})

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
		want, ok := trafficDigests[name]
		switch {
		case !ok:
			t.Errorf("%s: no digest pinned (got %s)", name, got[name])
		case got[name] != want:
			t.Errorf("%s: digest %s, pinned %s: the report or its artifacts moved", name, got[name], want)
		}
	}
	if len(trafficDigests) != len(got) {
		t.Errorf("%d digests pinned for %d configurations", len(trafficDigests), len(got))
	}
	if t.Failed() {
		t.Logf("digests of this tree:\n%s", table.String())
	}
}

// detailedFabricCases are detailed T805 grids on the switching and routing
// strategies other than the preset's store-and-forward.
func detailedFabricCases() map[string]Config {
	worm := T805Grid(3, 3)
	worm.Seed = 5
	worm.Network.Router.Switching = router.Wormhole
	adaptive := T805Grid(3, 3)
	adaptive.Seed = 9
	adaptive.Network.Router.Switching = router.VirtualCutThrough
	adaptive.Network.Router.Routing = router.Adaptive
	faulted := T805Grid(2, 2)
	faulted.Seed = 11
	faulted.Network.Router.Switching = router.VirtualCutThrough
	faulted.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 8_000, To: 90_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
		Retrans: fault.Retrans{Timeout: 250, Backoff: 2, MaxRetries: 16},
	}
	return map[string]Config{
		"detailed/T805Grid(3,3)/Wormhole":       worm,
		"detailed/T805Grid(3,3)/VCTAdaptive":    adaptive,
		"detailed/T805Grid(2,2)/VCTUnderFaults": faulted,
	}
}

// kernelCases are two machines the parallel engine ran before it narrowed to
// task-level machines, now pinned on the single kernel: a detailed ping-pong
// between two T805 nodes, and Jacobi on a 2×2 grid with a link down-window,
// packet noise and retransmission all active at once.
func kernelCases() []engineCase {
	pingpong := T805Grid(2, 1)
	pingpong.Seed = 42
	faulted := T805Grid(2, 2)
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 200_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
		Retrans: fault.Retrans{
			Timeout:    200,
			Backoff:    2,
			MaxRetries: 16,
		},
	}
	return []engineCase{
		{"PingPong", pingpong, programStreams(func() *trace.Program { return workload.PingPong(20, 1500) })},
		{"UnderFaults", faulted, programStreams(func() *trace.Program { return workload.Jacobi1D(4, 256, 6) })},
	}
}
