package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/core"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
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
	slowProbe := probe.New(probe.Config{Timeline: true})
	orders := make([][]int, 2)
	pts := make([]point, 2)
	for i, cyclesPerByte := range []int{1, 24} {
		pts[i].name = fmt.Sprintf("%d cyc/B", cyclesPerByte)
		pts[i].cfg = machine.T805Grid(2, 2)
		pts[i].cfg.Network.Link.CyclesPerByte = cyclesPerByte
		pts[i].drive = runProgram(workload.RecvAnyServer(4, uint32(msgBytes), work, &orders[i]))
	}
	pts[1].opts = []core.Option{core.WithProbe(slowProbe)}
	if _, err := runPoints(Spec{}, pts); err != nil {
		return nil, err
	}
	out := newOutput("architecture", "observed service order")
	var differ float64
	for i, order := range orders {
		parts := make([]string, len(order))
		for j, r := range order {
			parts[j] = fmt.Sprint(r)
		}
		out.row([]string{"fast links (1 cyc/B)", "slow links (24 cyc/B)"}[i], strings.Join(parts, ","))
		if !slices.Equal(order, orders[0]) {
			differ = 1
		}
	}
	out.key("orders_differ", differ)
	out.rs.Artifacts = []Artifact{{Name: "timeline", Render: slowProbe.Timeline().WriteJSON}}
	return out.done()
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
	desc := stochastic.Desc{
		Name: "cache-sweep", Nodes: 1, Level: stochastic.InstructionLevel, Seed: 5, Iterations: 1,
		Phases: []stochastic.Phase{{
			Instructions: 60000,
			Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 16 << 10},
		}},
	}
	var pts []point
	add := func(kib, assoc int) {
		cfg := machine.PPC601Machine()
		cfg.Node.Hierarchy.Private[0].Size = kib << 10
		cfg.Node.Hierarchy.Private[0].Assoc = assoc
		pts = append(pts, point{name: fmt.Sprintf("%dk_a%d", kib, assoc), cfg: cfg, drive: runDesc(desc)})
	}
	for _, kib := range sizes {
		add(kib, 8)
	}
	for _, a := range assocs {
		add(16, a)
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("L1 size", "assoc", "hit ratio", "cycles", "CPI")
	for i, r := range res {
		l1 := pts[i].cfg.Node.Hierarchy.Private[0]
		hit := out.metric(hierarchy(r, "node0.cpu0.L1"), "hit ratio")
		out.row(fmt.Sprintf("%dK", l1.Size>>10), l1.Assoc, hit, int64(r.Cycles), float64(r.Cycles)/float64(r.Instructions))
		out.key("hit_"+pts[i].name, hit)
		out.key("cycles_"+pts[i].name, float64(r.Cycles))
	}
	return out.done()
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
	var pts []point
	for _, tc := range topos {
		for _, sw := range switchings {
			pts = append(pts, point{name: fmt.Sprintf("%s/%s", tc.Kind, shortSw[sw]),
				cfg: machine.GenericTaskMachine(tc, nodes, sw), drive: runDesc(desc)})
		}
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("topology", "switching", "cycles", "mean msg latency", "max link util", "links")
	for i, r := range res {
		tc, sw := topos[i/len(switchings)], switchings[i%len(switchings)]
		topo, err := topology.New(tc)
		if err != nil {
			return nil, err
		}
		net := network(r)
		lat := out.metric(net, "mean msg latency")
		out.row(topo.Name(), sw.String(), int64(r.Cycles), lat, out.metric(net, "max link utilization"), topology.Links(topo))
		out.key(pts[i].name+"/latency", lat)
		out.key(pts[i].name+"/cycles", float64(r.Cycles))
	}
	return out.done()
}

// shortSw names a switching strategy in network-sweep's keys.
var shortSw = map[router.Switching]string{router.StoreAndForward: "saf", router.VirtualCutThrough: "vct", router.Wormhole: "wh"}

// coherenceStudy (E9) exercises the shared-memory side of the workbench
// (§4.3): SMP scaling under a true-sharing workload and the snoopy bus
// protocol against the directory alternative.
func coherenceStudy(s Spec) (*ResultSet, error) {
	var pts []point
	for _, cpus := range []int{1, 2, 4, 8} {
		cfg := machine.PPC601SMP(cpus)
		if cpus == 1 {
			cfg.Node.Hierarchy.Coherence = cache.NoCoherence
		}
		pts = append(pts, point{name: fmt.Sprintf("smp%d", cpus), cfg: cfg, drive: runProgram(workload.SharedCounter(cpus, 200))})
	}
	// Snoopy vs directory at 8 CPUs.
	dirCfg := machine.PPC601SMP(8)
	dirCfg.Node.Hierarchy.Coherence = cache.Directory
	dirCfg.Node.Hierarchy.DirLookupLatency = 3
	dirCfg.Node.Hierarchy.DirMessageLatency = 4
	pts = append(pts, point{name: "dir8", cfg: dirCfg, drive: runProgram(workload.SharedCounter(8, 200))})
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("machine", "CPUs", "coherence", "cycles", "invalidations", "bus util")
	for i, r := range res {
		h := pts[i].cfg.Node.Hierarchy
		var inv float64
		for c := 0; c < h.CPUs; c++ {
			inv += out.metric(hierarchy(r, fmt.Sprintf("node0.cpu%d.L1", c)), "snoop invalidations")
		}
		out.row("ppc601-smp", h.CPUs, h.Coherence.String(), int64(r.Cycles), int64(inv), out.metric(hierarchy(r, "bus"), "utilization"))
		out.key("cycles_"+pts[i].name, float64(r.Cycles))
		out.key("inval_"+pts[i].name, inv)
	}
	return out.done()
}

// stochasticVsAnnotated (E10) compares the two application-modelling paths
// of Fig. 4 on the same machine: an instrumented Jacobi solver versus a
// stochastic description of the same phase structure. The synthetic load
// reproduces the communication structure and the execution time roughly —
// "modest accuracy", per §3. The description is measured from the annotated
// run, so the two run one after the other.
func stochasticVsAnnotated(s Spec) (*ResultSet, error) {
	const nodes, iters = 4, 10
	resA, err := runPoints(s, []point{{name: "annotated", cfg: machine.T805Grid(2, 2),
		drive: runProgram(workload.Jacobi1D(nodes, 128, iters))}})
	if err != nil {
		return nil, err
	}
	// A generated "instruction" is an ifetch plus an operation — two trace
	// events — while Result.Instructions counts trace events executed.
	instrPerNode := int64(resA[0].Instructions) / nodes / iters / 2

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
	resS, err := runPoints(s, []point{{name: "stochastic", cfg: machine.T805Grid(2, 2), drive: runDesc(desc)}})
	if err != nil {
		return nil, err
	}

	out := newOutput("workload path", "cycles", "instructions", "messages", "payload bytes")
	for _, p := range []struct {
		key, label string
		r          *machine.Result
	}{{"annotated", "annotated program", resA[0]}, {"stochastic", "stochastic description", resS[0]}} {
		msgs := out.metric(network(p.r), "messages")
		out.row(p.label, int64(p.r.Cycles), int64(p.r.Instructions), int64(msgs), int64(out.metric(network(p.r), "payload bytes")))
		out.key(p.key+"_cycles", float64(p.r.Cycles))
		out.key(p.key+"_msgs", msgs)
	}
	out.key("cycle_ratio", float64(resS[0].Cycles)/float64(resA[0].Cycles))
	return out.done()
}

// nodeInterconnectStudy (ablation of §4.1's "changing the bus to a more
// complex structure"): the same multi-CPU node with its shared bus swapped
// for a banked crossbar, under the directory protocol (snooping needs a
// broadcast medium) with a bank-disjoint access pattern.
func nodeInterconnectStudy(s Spec) (*ResultSet, error) {
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
	var pts []point
	for _, kind := range []bus.Kind{bus.KindBus, bus.KindCrossbar} {
		cfg := machine.PPC601SMP(4)
		cfg.Node.Hierarchy.Coherence = cache.Directory
		cfg.Node.Hierarchy.DirLookupLatency = 3
		cfg.Node.Hierarchy.DirMessageLatency = 4
		cfg.Node.Hierarchy.Bus.Kind = kind
		cfg.Node.Hierarchy.Bus.Banks = 8
		cfg.Node.Hierarchy.Bus.InterleaveBytes = 64
		pts = append(pts, point{name: string(kind), cfg: cfg, drive: runDesc(desc)})
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("interconnect", "CPUs", "cycles", "avg occupancy")
	for i, r := range res {
		kind := pts[i].name
		out.row(kind, 4, int64(r.Cycles), out.metric(hierarchy(r, kind), "utilization"))
		out.key(kind+"/cycles", float64(r.Cycles))
	}
	return out.done()
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
	// The adversarial permutation as task traces.
	streams := make([][]ops.Op, nodes)
	for i := range streams {
		dst := (i + 8) % nodes
		for r := 0; r < rounds; r++ {
			tag := uint32(100 + r)
			streams[i] = append(streams[i],
				ops.NewASend(uint32(msgBytes), int32(dst), tag),
				ops.NewRecv(int32(dst), tag),
			)
		}
	}
	var pts []point
	for _, rt := range []router.Routing{router.Minimal, router.Valiant, router.Adaptive} {
		cfg := machine.GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, nodes, router.VirtualCutThrough)
		cfg.Network.Router.Routing = rt
		cfg.Network.Seed = 5
		pts = append(pts, point{name: rt.String(), cfg: cfg, drive: runOps(streams...)})
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("routing", "cycles", "mean hops", "mean latency", "max link util")
	for i, r := range res {
		net, rt := network(r), pts[i].name
		hops, maxU := out.metric(net, "mean hops"), out.metric(net, "max link utilization")
		out.row(rt, int64(r.Cycles), hops, out.metric(net, "mean msg latency"), maxU)
		out.key(rt+"/cycles", float64(r.Cycles))
		out.key(rt+"/hops", hops)
		out.key(rt+"/maxutil", maxU)
	}
	return out.done()
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
	pts := make([]point, len(cvs))
	for i, cv := range cvs {
		pts[i] = point{name: fmt.Sprintf("cv=%g", cv), cfg: machine.T805GridTaskLevel(4, 4),
			drive: runDesc(stochastic.Desc{
				Name: "bsp", Nodes: 16, Level: stochastic.TaskLevel, Seed: 77, Iterations: 20,
				Phases: []stochastic.Phase{{
					Duration: 50000,
					CV:       cv,
					Comm:     stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512},
				}},
			})}
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("CV", "cycles", "vs balanced")
	for i, r := range res {
		out.row(cvs[i], int64(r.Cycles), float64(r.Cycles)/float64(res[0].Cycles))
		out.key(fmt.Sprintf("cycles_cv%.1f", cvs[i]), float64(r.Cycles))
	}
	return out.done()
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
	pts := make([]point, len(grids))
	for i, g := range grids {
		pts[i] = point{name: fmt.Sprintf("%dx%d", g.w, g.h), cfg: machine.T805Grid(g.w, g.h),
			drive: runProgram(workload.Jacobi1D(g.w*g.h, cells, iters))}
	}
	pts[len(pts)-1].opts = []core.Option{core.WithAnalysis()}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("nodes", "cycles", "speedup", "efficiency")
	// Speedups are relative to the 2-node run.
	base := float64(res[0].Cycles)
	for i, r := range res {
		nodes := grids[i].w * grids[i].h
		speedup := base / float64(r.Cycles)
		out.row(nodes, int64(r.Cycles), speedup, speedup/float64(nodes))
		out.key(fmt.Sprintf("cycles_%d", nodes), float64(r.Cycles))
		out.key(fmt.Sprintf("speedup_%d", nodes), speedup)
		if r.Analysis != nil {
			out.rs.Artifacts = append(out.rs.Artifacts, Artifact{Name: "bottleneck", Render: r.Analysis.WriteJSON})
		}
	}
	return out.done()
}
