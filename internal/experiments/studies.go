package experiments

import (
	"fmt"
	"strings"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/core"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// traceValidity (E6) demonstrates the execution-driven trace guarantee of
// §3.1: a receive-from-any server workload (message size: sweep parameter
// "bytes") is run on two architectures — one with fast links, one with slow
// transputer-class links — and the multiprocessor traces (the observed
// service orders) differ, yet each is exactly the order the corresponding
// target machine produces. A static trace could satisfy at most one of them.
// The slow-link run records a probe timeline, attached as the "timeline"
// artifact.
func traceValidity(s Spec) (*ResultSet, error) {
	msgBytes, err := s.intParam("bytes", defValidityBytes)
	if err != nil {
		return nil, err
	}
	// Clients: rank 3 (farthest) injects earliest, rank 1 (nearest) last.
	work := []int{0, 300, 200, 100}
	run := func(cyclesPerByte int, pb *probe.Probe) (string, *machine.Machine, error) {
		cfg := machine.T805Grid(2, 2)
		cfg.Network.Link.CyclesPerByte = cyclesPerByte
		wb, err := core.New(cfg, core.WithProbe(pb))
		if err != nil {
			return "", nil, err
		}
		m, err := wb.Build()
		if err != nil {
			return "", nil, err
		}
		var order []int
		if _, err := m.RunProgram(workload.RecvAnyServer(4, uint32(msgBytes), work, &order)); err != nil {
			return "", nil, err
		}
		parts := make([]string, len(order))
		for i, r := range order {
			parts[i] = fmt.Sprint(r)
		}
		return strings.Join(parts, ","), m, nil
	}
	fast, _, err := run(1, nil)
	if err != nil {
		return nil, err
	}
	slowProbe := probe.New(probe.Config{Timeline: true})
	slow, slowM, err := run(24, slowProbe)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("architecture", "observed service order")
	tb.Row("fast links (1 cyc/B)", fast)
	tb.Row("slow links (24 cyc/B)", slow)
	keys := Keys{"orders_differ": 0}
	if fast != slow {
		keys["orders_differ"] = 1
	}
	tl := slowM.MergedTimeline()
	return &ResultSet{Table: tb, Keys: keys, Artifacts: []Artifact{
		{Name: "timeline", Render: tl.WriteJSON},
	}}, nil
}

// cacheSweep (E7) is the design study the paper motivates in §2: the effect
// of private-cache parameters on performance, a study direct-execution
// simulators can only do marginally. It sweeps the L1 size at associativity
// 8 (sweep parameter "sizes", KiB) and the associativity at 16 KiB (sweep
// parameter "assocs") of the PowerPC 601 node under a fixed workload with a
// 16 KiB working set. Each sweep point is an independent machine, farmed
// across host workers; the table is identical for any worker count.
func cacheSweep(s Spec) (*ResultSet, error) {
	sizes, err := s.intsParam("sizes", defCacheSizesKiB)
	if err != nil {
		return nil, err
	}
	assocs, err := s.intsParam("assocs", defCacheAssocs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("L1 size", "assoc", "hit ratio", "cycles", "CPI")
	keys := Keys{}
	desc := stochastic.Desc{
		Name: "cache-sweep", Nodes: 1, Level: stochastic.InstructionLevel, Seed: 5, Iterations: 1,
		Phases: []stochastic.Phase{{
			Instructions: 60000,
			Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 16 << 10},
		}},
	}
	type pt struct {
		size  int
		assoc int
	}
	var points []pt
	for _, kib := range sizes {
		points = append(points, pt{kib << 10, 8})
	}
	for _, a := range assocs {
		points = append(points, pt{16 << 10, a})
	}
	jobs := make([]farm.Job, len(points))
	for i, point := range points {
		point := point
		jobs[i] = farm.Job{Name: fmt.Sprintf("l1=%dK/a%d", point.size>>10, point.assoc),
			Run: func(rc *farm.RunContext) (any, error) {
				cfg := machine.PPC601Machine()
				cfg.Node.Hierarchy.Private[0].Size = point.size
				cfg.Node.Hierarchy.Private[0].Assoc = point.assoc
				m, err := machine.New(cfg)
				if err != nil {
					return nil, err
				}
				res, err := m.RunStochastic(desc)
				if err != nil {
					return nil, err
				}
				rc.ObserveSim(res.Cycles, res.Events)
				l1 := m.Nodes()[0].Hierarchy().PrivateCache(0, 0)
				cpi := float64(res.Cycles) / float64(res.Instructions)
				return measurement{
					row: []any{fmt.Sprintf("%dK", point.size>>10), point.assoc, l1.HitRatio(), int64(res.Cycles), cpi},
					keys: Keys{
						fmt.Sprintf("hit_%dk_a%d", point.size>>10, point.assoc):    l1.HitRatio(),
						fmt.Sprintf("cycles_%dk_a%d", point.size>>10, point.assoc): float64(res.Cycles),
					},
				}, nil
			}}
	}
	if err := collect(s, jobs, tb, keys); err != nil {
		return nil, err
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// networkSweep (E8) evaluates interconnect design options on the task-level
// model: topology x switching strategy under a fixed communication-bound
// load (message size: sweep parameter "bytes"), reporting latency and cost
// metrics — the §4.2 parameterisation at work. The 12 design points farm
// across host workers.
func networkSweep(s Spec) (*ResultSet, error) {
	msgBytes, err := s.intParam("bytes", defNetworkBytes)
	if err != nil {
		return nil, err
	}
	const nodes = 16
	tb := stats.NewTable("topology", "switching", "cycles", "mean msg latency", "max link util", "links")
	keys := Keys{}
	topos := []topology.Config{
		{Kind: topology.Ring, Nodes: nodes},
		{Kind: topology.Mesh2D, DimX: 4, DimY: 4},
		{Kind: topology.Torus2D, DimX: 4, DimY: 4},
		{Kind: topology.Hypercube, Nodes: nodes},
	}
	switchings := []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole}
	desc := stochastic.Desc{
		Name: "net-sweep", Nodes: nodes, Level: stochastic.TaskLevel, Seed: 21, Iterations: 8,
		Phases: []stochastic.Phase{{
			Duration: 200,
			Comm:     stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: uint32(msgBytes)},
		}},
	}
	var jobs []farm.Job
	for _, tc := range topos {
		for _, sw := range switchings {
			tc, sw := tc, sw
			jobs = append(jobs, farm.Job{Name: fmt.Sprintf("%s/%s", tc.Kind, shortSw(sw)),
				Run: func(rc *farm.RunContext) (any, error) {
					topo, err := topology.New(tc)
					if err != nil {
						return nil, err
					}
					m, err := machine.New(machine.GenericTaskMachine(tc, nodes, sw))
					if err != nil {
						return nil, err
					}
					res, err := m.RunStochastic(desc)
					if err != nil {
						return nil, err
					}
					rc.ObserveSim(res.Cycles, res.Events)
					lat := m.Network().MessageLatency().Mean()
					_, maxU := m.Network().LinkUtilization()
					key := fmt.Sprintf("%s/%s", tc.Kind, shortSw(sw))
					return measurement{
						row: []any{topo.Name(), sw.String(), int64(res.Cycles), lat, maxU, topology.Links(topo)},
						keys: Keys{
							key + "/latency": lat,
							key + "/cycles":  float64(res.Cycles),
						},
					}, nil
				}})
		}
	}
	if err := collect(s, jobs, tb, keys); err != nil {
		return nil, err
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

func shortSw(sw router.Switching) string {
	switch sw {
	case router.StoreAndForward:
		return "saf"
	case router.VirtualCutThrough:
		return "vct"
	default:
		return "wh"
	}
}

// coherenceStudy (E9) exercises the shared-memory side of the workbench
// (§4.3): SMP scaling under a true-sharing workload and the snoopy bus
// protocol against the directory alternative.
func coherenceStudy(Spec) (*ResultSet, error) {
	tb := stats.NewTable("machine", "CPUs", "coherence", "cycles", "invalidations", "bus util")
	keys := Keys{}
	for _, cpus := range []int{1, 2, 4, 8} {
		cfg := machine.PPC601SMP(cpus)
		if cpus == 1 {
			cfg.Node.Hierarchy.Coherence = cache.NoCoherence
		}
		res, inv, busU, err := runSharedCounter(cfg, cpus)
		if err != nil {
			return nil, err
		}
		tb.Row("ppc601-smp", cpus, cfg.Node.Hierarchy.Coherence.String(), int64(res), int64(inv), busU)
		keys[fmt.Sprintf("cycles_smp%d", cpus)] = float64(res)
		keys[fmt.Sprintf("inval_smp%d", cpus)] = float64(inv)
	}
	// Snoopy vs directory at 8 CPUs.
	dirCfg := machine.PPC601SMP(8)
	dirCfg.Node.Hierarchy.Coherence = cache.Directory
	dirCfg.Node.Hierarchy.DirLookupLatency = 3
	dirCfg.Node.Hierarchy.DirMessageLatency = 4
	res, inv, busU, err := runSharedCounter(dirCfg, 8)
	if err != nil {
		return nil, err
	}
	tb.Row("ppc601-smp", 8, "directory", int64(res), int64(inv), busU)
	keys["cycles_dir8"] = float64(res)
	keys["inval_dir8"] = float64(inv)
	return &ResultSet{Table: tb, Keys: keys}, nil
}

func runSharedCounter(cfg machine.Config, cpus int) (cycles float64, invals uint64, busU float64, err error) {
	m, err := machine.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := m.RunProgram(workload.SharedCounter(cpus, 200))
	if err != nil {
		return 0, 0, 0, err
	}
	h := m.Nodes()[0].Hierarchy()
	for i := 0; i < cpus; i++ {
		invals += h.PrivateCache(i, 0).S.SnoopInvalidates.Value()
	}
	return float64(res.Cycles), invals, h.Bus().Utilization(), nil
}

// stochasticVsAnnotated (E10) compares the two application-modelling paths
// of Fig. 4 on the same machine: an instrumented Jacobi solver versus a
// stochastic description of the same phase structure. The synthetic load
// reproduces the communication structure and the execution time roughly —
// "modest accuracy", per §3.
func stochasticVsAnnotated(Spec) (*ResultSet, error) {
	const nodes, iters = 4, 10
	// Annotated run.
	mA, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		return nil, err
	}
	resA, err := mA.RunProgram(workload.Jacobi1D(nodes, 128, iters))
	if err != nil {
		return nil, err
	}
	msgsA, bytesA := mA.Network().Messages(), mA.Network().Bytes()
	// A generated "instruction" is an ifetch plus an operation — two trace
	// events — while Result.Instructions counts trace events executed.
	instrPerNode := int64(resA.Instructions) / nodes / iters / 2

	// Stochastic description of the same structure: per iteration, one
	// computation phase of the measured instruction count, then the halo
	// exchange (pairwise with both neighbours on the chain).
	desc := stochastic.Desc{
		Name: "jacobi-like", Nodes: nodes, Level: stochastic.InstructionLevel, Seed: 3,
		Iterations: iters,
		Phases: []stochastic.Phase{{
			Instructions: instrPerNode,
			Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 4 << 10, Stride: 8, Access: ops.MemFloat8},
			Comm:         stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 8},
		}},
	}
	mS, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		return nil, err
	}
	resS, err := mS.RunStochastic(desc)
	if err != nil {
		return nil, err
	}
	msgsS, bytesS := mS.Network().Messages(), mS.Network().Bytes()

	tb := stats.NewTable("workload path", "cycles", "instructions", "messages", "payload bytes")
	tb.Row("annotated program", int64(resA.Cycles), int64(resA.Instructions), int64(msgsA), int64(bytesA))
	tb.Row("stochastic description", int64(resS.Cycles), int64(resS.Instructions), int64(msgsS), int64(bytesS))
	keys := Keys{
		"annotated_cycles":  float64(resA.Cycles),
		"stochastic_cycles": float64(resS.Cycles),
		"annotated_msgs":    float64(msgsA),
		"stochastic_msgs":   float64(msgsS),
		"cycle_ratio":       float64(resS.Cycles) / float64(resA.Cycles),
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// nodeInterconnectStudy (ablation of §4.1's "changing the bus to a more
// complex structure"): the same multi-CPU node with its shared bus swapped
// for a banked crossbar, under the directory protocol (snooping needs a
// broadcast medium) with a bank-disjoint access pattern.
func nodeInterconnectStudy(Spec) (*ResultSet, error) {
	tb := stats.NewTable("interconnect", "CPUs", "cycles", "avg occupancy")
	keys := Keys{}
	desc := stochastic.Desc{
		Name: "xbar", Nodes: 4, Level: stochastic.InstructionLevel, Seed: 13, Iterations: 1,
		Phases: []stochastic.Phase{{
			Instructions: 5000,
			// Strided streams: each CPU sweeps its own region, so crossbar
			// banks rarely collide.
			Mem: stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 256 << 10, Stride: 64, Access: ops.MemFloat8},
			Mix: stochastic.Mix{Load: 0.5, Store: 0.2, IntArith: 0.3},
		}},
	}
	for _, kind := range []bus.Kind{bus.KindBus, bus.KindCrossbar} {
		cfg := machine.PPC601SMP(4)
		cfg.Node.Hierarchy.Coherence = cache.Directory
		cfg.Node.Hierarchy.DirLookupLatency = 3
		cfg.Node.Hierarchy.DirMessageLatency = 4
		cfg.Node.Hierarchy.Bus.Kind = kind
		cfg.Node.Hierarchy.Bus.Banks = 8
		cfg.Node.Hierarchy.Bus.InterleaveBytes = 64
		m, err := machine.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := m.RunStochastic(desc)
		if err != nil {
			return nil, err
		}
		u := m.Nodes()[0].Hierarchy().Bus().Utilization()
		tb.Row(string(kind), 4, int64(res.Cycles), u)
		keys[string(kind)+"/cycles"] = float64(res.Cycles)
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// routingStudy (§4.2's configurable routing strategy): an adversarial
// permutation (antipodal in one torus dimension, so deterministic minimal
// routing piles all traffic onto one dimension's links) under minimal vs
// Valiant randomised routing. Message size and exchange rounds are the sweep
// parameters "bytes" and "rounds". The strategies farm across host workers.
func routingStudy(s Spec) (*ResultSet, error) {
	msgBytes, err := s.intParam("bytes", defRoutingBytes)
	if err != nil {
		return nil, err
	}
	rounds, err := s.intParam("rounds", defRoutingRounds)
	if err != nil {
		return nil, err
	}
	const nodes = 16
	tb := stats.NewTable("routing", "cycles", "mean hops", "mean latency", "max link util")
	keys := Keys{}
	strategies := []router.Routing{router.Minimal, router.Valiant, router.Adaptive}
	jobs := make([]farm.Job, len(strategies))
	for i, rt := range strategies {
		rt := rt
		jobs[i] = farm.Job{Name: rt.String(), Run: func(rc *farm.RunContext) (any, error) {
			cfg := machine.GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, nodes, router.VirtualCutThrough)
			cfg.Network.Router.Routing = rt
			cfg.Network.Seed = 5
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			// Build the adversarial permutation as task traces directly.
			srcs := make([]trace.Source, nodes)
			for i := 0; i < nodes; i++ {
				dst := (i + 8) % nodes
				var tr []ops.Op
				for r := 0; r < rounds; r++ {
					tag := uint32(100 + r)
					tr = append(tr,
						ops.NewASend(uint32(msgBytes), int32(dst), tag),
						ops.NewRecv(int32((i+8)%nodes), tag),
					)
				}
				srcs[i] = trace.FromOps(tr)
			}
			res, err := m.Run(srcs)
			if err != nil {
				return nil, err
			}
			rc.ObserveSim(res.Cycles, res.Events)
			_, maxU := m.Network().LinkUtilization()
			lat := m.Network().MessageLatency().Mean()
			return measurement{
				row: []any{rt.String(), int64(res.Cycles), m.Network().MeanHops(), lat, maxU},
				keys: Keys{
					rt.String() + "/cycles":  float64(res.Cycles),
					rt.String() + "/hops":    m.Network().MeanHops(),
					rt.String() + "/maxutil": maxU,
				},
			}, nil
		}}
	}
	if err := collect(s, jobs, tb, keys); err != nil {
		return nil, err
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// imbalanceStudy exercises the load-balancing knob of the stochastic
// descriptions (§3.2: the task-level model exists "to model synchronization
// behaviour and load-balancing correctly"): the same BSP-style
// compute/exchange loop under growing cross-node imbalance (sweep parameter
// "cv", the coefficient of variation of the per-node computation).
// Completion time is governed by the slowest node of each superstep, so it
// grows with CV even though the mean work is constant.
func imbalanceStudy(s Spec) (*ResultSet, error) {
	cvs, err := s.floatsParam("cv", defImbalanceCVs)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("CV", "cycles", "vs balanced")
	keys := Keys{}
	var base float64
	for _, cv := range cvs {
		m, err := machine.New(machine.T805GridTaskLevel(4, 4))
		if err != nil {
			return nil, err
		}
		res, err := m.RunStochastic(stochastic.Desc{
			Name: "bsp", Nodes: 16, Level: stochastic.TaskLevel, Seed: 77, Iterations: 20,
			Phases: []stochastic.Phase{{
				Duration: 50000,
				CV:       cv,
				Comm:     stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512},
			}},
		})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = float64(res.Cycles)
		}
		tb.Row(cv, int64(res.Cycles), float64(res.Cycles)/base)
		keys[fmt.Sprintf("cycles_cv%.1f", cv)] = float64(res.Cycles)
	}
	return &ResultSet{Table: tb, Keys: keys}, nil
}

// scalingStudy runs a fixed-size Jacobi problem (sweep parameters "cells"
// and "iters") on growing T805 machines — the classic strong-scaling curve
// an architecture workbench exists to predict: speedup rises with nodes
// while parallel efficiency falls as the fixed per-iteration halo
// communication stops amortising. The largest machine runs under the
// bottleneck analysis engine; its report is attached as the "bottleneck"
// artifact.
func scalingStudy(s Spec) (*ResultSet, error) {
	cells, err := s.intParam("cells", defScalingCells)
	if err != nil {
		return nil, err
	}
	iters, err := s.intParam("iters", defScalingIters)
	if err != nil {
		return nil, err
	}
	grids := []struct{ w, h int }{{2, 1}, {2, 2}, {4, 2}, {4, 4}}
	tb := stats.NewTable("nodes", "cycles", "speedup", "efficiency")
	keys := Keys{}
	var arts []Artifact
	var base float64
	for gi, g := range grids {
		nodes := g.w * g.h
		var opts []core.Option
		if gi == len(grids)-1 {
			opts = append(opts, core.WithAnalysis())
		}
		wb, err := core.New(machine.T805Grid(g.w, g.h), opts...)
		if err != nil {
			return nil, err
		}
		m, err := wb.Build()
		if err != nil {
			return nil, err
		}
		res, err := m.RunProgram(workload.Jacobi1D(nodes, cells, iters))
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = float64(res.Cycles) * float64(nodes) / 2 // 2-node run scaled to serial estimate
		}
		speedup := base / float64(res.Cycles)
		tb.Row(nodes, int64(res.Cycles), speedup, speedup/float64(nodes))
		keys[fmt.Sprintf("cycles_%d", nodes)] = float64(res.Cycles)
		keys[fmt.Sprintf("speedup_%d", nodes)] = speedup
		if res.Analysis != nil {
			arts = append(arts, Artifact{Name: "bottleneck", Render: res.Analysis.WriteJSON})
		}
	}
	return &ResultSet{Table: tb, Keys: keys, Artifacts: arts}, nil
}
