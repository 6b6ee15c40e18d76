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
// entries without a probe. The timelines are pinned apart, in
// trafficTimelineDigests, split off by commit 944c536 from the hash of
// report and bottleneck JSON that trafficDigests keeps.
var trafficDigests = map[string]string{
	"detailed/DSMCluster(2,2)":              "72b1fee7d7ee5371029daf2b",
	"detailed/HybridCluster(2,2,2)":         "98e4d56230637dea058baf29",
	"detailed/T805Grid(2,2)":                "9677878ebf626a7a3489080f",
	"detailed/T805Grid(2,2)/VCTUnderFaults": "51bc3deb5c5bbf36cd29099f",
	"detailed/T805Grid(3,3)/VCTAdaptive":    "a8335782a5dfe969a2472005",
	"detailed/T805Grid(3,3)/Wormhole":       "d54ea466e1f8880d795bc1fb",
	"engine/AdaptiveFatTree/observed":       "9264220e483a7f6bcd375a8b",
	"engine/AdaptiveFatTree/plain":          "ded231e5f44590e3568fba65",
	"engine/Dragonfly/observed":             "c3525a12ce8e8f3dd7180822",
	"engine/Dragonfly/plain":                "d464e0c2f253ddcae834e700",
	"engine/Matching/observed":              "d4692c44d29034ce39ffef4f",
	"engine/Matching/plain":                 "2895123f96483527fc6dbb2c",
	"engine/MatchingNoOverhead/observed":    "52a84cb2fbd852ece2c6d30c",
	"engine/MatchingNoOverhead/plain":       "3b1816f4b7d430762697dcb6",
	"engine/SAF/observed":                   "2ac4a1377c0e41b5ae5d743a",
	"engine/SAF/plain":                      "56d82c0eb99d9116e59077af",
	"engine/UnderFaults/observed":           "0e4a5c03e9c1a677fce2c5f1",
	"engine/UnderFaults/plain":              "e1c50a39221e12c8a91d9e2c",
	"engine/VCTValiant/observed":            "d4f6a74998bad5b3c295d586",
	"engine/VCTValiant/plain":               "b854001b7c7d67d00d6d74f3",
	"engine/WormholeTorus3D/observed":       "b50bb6c1276e847101e360ab",
	"engine/WormholeTorus3D/plain":          "4b8d96f574ab6684093fe4b6",
	"engine/WormholeUnderFaults/observed":   "5ae100c92f0326444031f1ec",
	"engine/WormholeUnderFaults/plain":      "f775a623a75f8762bb63c593",
	"kernel/PingPong":                       "50ef82149d40726eb8c82c36",
	"kernel/UnderFaults":                    "e35f0c5da4666f663bdd3f3a",
	"shards/TaskLevel/1":                    "d314f8fb7c4a36c730921485",
	"shards/TaskLevel/2":                    "d314f8fb7c4a36c730921485",
	"shards/TaskLevel/4":                    "d314f8fb7c4a36c730921485",
}

// trafficTimelineDigests is printed by TestTrafficDigests: the timeline of
// every observed case.
var trafficTimelineDigests = map[string]string{
	"detailed/DSMCluster(2,2)":              "54baa9783a51639e2b1b6e5a",
	"detailed/HybridCluster(2,2,2)":         "cdcc1394ec6c495b56a81a3c",
	"detailed/T805Grid(2,2)":                "2e5804f4299a3b1511e03d76",
	"detailed/T805Grid(2,2)/VCTUnderFaults": "71685b50a87bdb16ba185da6",
	"detailed/T805Grid(3,3)/VCTAdaptive":    "ec81812d465cc3436097bd22",
	"detailed/T805Grid(3,3)/Wormhole":       "ea848de3809460a42b4975ed",
	"engine/AdaptiveFatTree/observed":       "d73ef27a7adb8881ec16b5db",
	"engine/Dragonfly/observed":             "07d7aeb08775b129bb84a2d3",
	"engine/Matching/observed":              "b76afc20a1c9711247b0e479",
	"engine/MatchingNoOverhead/observed":    "2ff5eb869cd80599e96a4dd4",
	"engine/SAF/observed":                   "8d114a40b5cddb271f158b87",
	"engine/UnderFaults/observed":           "93833a8237817cf302269e90",
	"engine/VCTValiant/observed":            "40cd1d25b56ef615442b6613",
	"engine/WormholeTorus3D/observed":       "6575fcb1bf4c860287634ac0",
	"engine/WormholeUnderFaults/observed":   "c78bc5fa8172ce9c41acf7d2",
	"kernel/PingPong":                       "8e80867b1679df30ff4f47bf",
	"kernel/UnderFaults":                    "b26d255b0c8d312b6d07aed1",
}

// artifactDigest runs cfg, observed or with a bare probe, and hashes every
// artifact of the run: the report with the bottleneck JSON, and the timeline
// apart ("" when the run records none). Observed means the timeline and the
// bottleneck collector. Shards refuse every observer, so a sharded run has no
// probe.
func artifactDigest(t *testing.T, cfg Config, observed bool, run func(*Machine) (*Result, error)) (report, timeline string) {
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
	kernels := []*pearl.Kernel{m.k}
	if m.group != nil {
		kernels = kernels[:0]
		for i := 0; i < m.group.Shards(); i++ {
			kernels = append(kernels, m.group.Kernel(i))
		}
	}
	for _, k := range kernels {
		if n := k.Switches(); n != 0 {
			t.Errorf("%s: %d switches; nothing in a machine runs on a stack of its own", cfg.Name, n)
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d cycles, %d events, %d instructions\n", res.Cycles, res.Events, res.Instructions)
	if err := stats.RenderSet(h, res.Stats); err != nil {
		t.Fatal(err)
	}
	if res.Analysis != nil {
		if err := res.Analysis.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	if tl := m.MergedTimeline(); tl != nil {
		th := sha256.New()
		if err := tl.WriteJSON(th); err != nil {
			t.Fatal(err)
		}
		timeline = fmt.Sprintf("%x", th.Sum(nil)[:12])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), timeline
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
	got, gotTimeline := make(map[string]string), make(map[string]string)
	add := func(name string, cfg Config, observed bool, run func(*Machine) (*Result, error)) {
		got[name], gotTimeline[name] = artifactDigest(t, cfg, observed, run)
		if gotTimeline[name] == "" {
			delete(gotTimeline, name)
		}
	}
	for _, c := range engineCases() {
		for observed, label := range map[bool]string{true: "observed", false: "plain"} {
			s := c.streams
			add("engine/"+c.name+"/"+label, c.cfg, observed, func(m *Machine) (*Result, error) {
				res, _, err := runCounted(m, s)
				return res, err
			})
		}
	}
	for _, c := range kernelCases() {
		s := c.streams
		add("kernel/"+c.name, c.cfg, true, func(m *Machine) (*Result, error) {
			res, _, err := runCounted(m, s)
			return res, err
		})
	}
	task := taskShardCase()
	for _, shards := range []int{1, 2, 4} {
		cfg := task.cfg
		cfg.Shards = shards
		add(fmt.Sprintf("shards/%s/%d", task.name, shards), cfg, false, func(m *Machine) (*Result, error) {
			res, _, err := runCounted(m, task.streams)
			return res, err
		})
	}
	add("detailed/T805Grid(2,2)", T805Grid(2, 2), true, func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.Jacobi1D(4, 64, 3))
	})
	for name, cfg := range detailedFabricCases() {
		nodes := cfg.Nodes
		add(name, cfg, true, func(m *Machine) (*Result, error) {
			return m.RunProgram(workload.Jacobi1D(nodes, 128, 4))
		})
	}
	add("detailed/HybridCluster(2,2,2)", HybridCluster(2, 2, 2), true, func(m *Machine) (*Result, error) {
		return m.Run(ringStreams(4, 2, 3))
	})
	add("detailed/DSMCluster(2,2)", DSMCluster(2, 2), true, func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.JacobiDSM(4, 64, 3))
	})
	checkPinned(t, "digests", got, trafficDigests)
	checkPinned(t, "timeline digests", gotTimeline, trafficTimelineDigests)
}

// checkPinned fails the test on every entry of got that pinned does not
// hold, and logs the table of this tree if one failed.
func checkPinned(t *testing.T, what string, got, pinned map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	failed := len(pinned) != len(got)
	if failed {
		t.Errorf("%d %s pinned for %d configurations", len(pinned), what, len(got))
	}
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
		if want, ok := pinned[name]; !ok {
			t.Errorf("%s: no digest pinned (got %s)", name, got[name])
			failed = true
		} else if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s: the report or its artifacts moved", name, got[name], want)
			failed = true
		}
	}
	if failed {
		t.Logf("%s of this tree:\n%s", what, table.String())
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
