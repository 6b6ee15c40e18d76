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
// bottleneck JSON of seeded runs. Every entry was re-printed by commit
// 07645d3 over the report alone, without the registry's snapshot the
// earlier digests rendered where the dump sat. The Matching entries were
// pinned at commit 1e0a5fd, while the
// compact engine still kept its own copy of NodeIf's matching rule. The
// engine/*/observed entries are what the per-process transport — one process
// per packet and per task-level node, then the only engine that carried the
// timeline and the collector — printed fully instrumented; the
// engine/*/plain entries are the compact engine's uninstrumented runs. Both
// are now the one single-kernel engine. A digest that moves means a counter,
// a metric name, a span or a simulated time moved. The
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
	"detailed/DSMCluster(2,2)":              "27e8b1571661f169ba078f2a",
	"detailed/HybridCluster(2,2,2)":         "7a81c5e3f74470e7f8266e83",
	"detailed/T805Grid(2,2)":                "980e54126b2032f2e244b994",
	"detailed/T805Grid(2,2)/VCTUnderFaults": "c79bffb2a01120ccb23ef7e7",
	"detailed/T805Grid(3,3)/VCTAdaptive":    "4cfaca3492ff149a9f90128d",
	"detailed/T805Grid(3,3)/Wormhole":       "86c29c52f40ed4f4def49f95",
	"engine/AdaptiveFatTree/observed":       "1955463dfb01d05be1a9a04f",
	"engine/AdaptiveFatTree/plain":          "ded231e5f44590e3568fba65",
	"engine/Dragonfly/observed":             "d0e3277b8445061842ad73cd",
	"engine/Dragonfly/plain":                "d464e0c2f253ddcae834e700",
	"engine/Matching/observed":              "a433fe72a12e08cf3cbaaf28",
	"engine/Matching/plain":                 "2895123f96483527fc6dbb2c",
	"engine/MatchingNoOverhead/observed":    "0eff084b1a1cf9c04c84fdef",
	"engine/MatchingNoOverhead/plain":       "3b1816f4b7d430762697dcb6",
	"engine/SAF/observed":                   "6b65dd35c27c0bfafb59e7cf",
	"engine/SAF/plain":                      "56d82c0eb99d9116e59077af",
	"engine/UnderFaults/observed":           "3747f5c3b8976fcbefab9a1b",
	"engine/UnderFaults/plain":              "e1c50a39221e12c8a91d9e2c",
	"engine/VCTValiant/observed":            "a2b1931cdfae2ee0cff45309",
	"engine/VCTValiant/plain":               "b854001b7c7d67d00d6d74f3",
	"engine/WormholeTorus3D/observed":       "2094a99a6c180764303ad6b1",
	"engine/WormholeTorus3D/plain":          "4b8d96f574ab6684093fe4b6",
	"engine/WormholeUnderFaults/observed":   "f31f22da3a05734416a7d444",
	"engine/WormholeUnderFaults/plain":      "f775a623a75f8762bb63c593",
	"kernel/PingPong":                       "7e282c0357dfe8c1c4cbdda1",
	"kernel/UnderFaults":                    "92d1b2c61aa8c8318bb8fa64",
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
	if err := stats.RenderSet(h, res.Stats); err != nil {
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
