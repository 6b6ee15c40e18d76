package experiments

import (
	"fmt"

	"mermaid/internal/core"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/workload"
)

// faultResilience exercises the fault-injection subsystem on the 2x2
// transputer grid: the same Jacobi workload (sweep parameters "cells" and
// "iters") runs healthy, under increasing packet-loss rates, and with a
// mid-run link failure that forces the routers to re-path. Every scenario
// completes — the retransmission layer recovers all losses — and the table
// quantifies the degradation: extra cycles, retransmissions, and packets
// dropped. The link-failure scenario runs under the bottleneck analysis
// engine and attaches its report as the "bottleneck" artifact. All
// quantities are simulated, so the table and artifact are byte-identical
// across hosts and worker counts.
func faultResilience(s Spec) (*ResultSet, error) {
	const nodes = 4
	cells, err := s.intParam("cells", defFaultCells)
	if err != nil {
		return nil, err
	}
	iters, err := s.intParam("iters", defFaultIters)
	if err != nil {
		return nil, err
	}
	retrans := fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16}
	scenarios := []struct {
		name    string
		sched   *fault.Schedule
		analyze bool
	}{
		{"healthy", nil, false},
		{"drop 0.1%", &fault.Schedule{
			Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.001}},
			Retrans: retrans,
		}, false},
		{"drop 1%", &fault.Schedule{
			Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
			Retrans: retrans,
		}, false},
		{"link 0-1 down", &fault.Schedule{
			Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 200_000}}},
			Retrans: retrans,
		}, true},
	}

	pts := make([]point, len(scenarios))
	for i, sc := range scenarios {
		cfg := machine.T805Grid(2, 2)
		cfg.Faults = sc.sched
		pts[i] = point{name: sc.name, cfg: cfg, drive: runProgram(workload.Jacobi1D(nodes, cells, iters))}
		if sc.analyze {
			pts[i].opts = append(pts[i].opts, core.WithAnalysis())
		}
	}
	res, err := runPoints(s, pts)
	if err != nil {
		return nil, err
	}
	out := newOutput("scenario", "cycles", "slowdown", "retransmits", "dropped", "abandoned")
	for i, r := range res {
		name, cycles := scenarios[i].name, float64(r.Cycles)
		// A healthy run reports no fault accounting: it has nothing to
		// recover from.
		var retransmits, dropped, abandoned float64
		if scenarios[i].sched != nil {
			retransmits = out.metric(network(r), "retransmits")
			dropped = out.metric(r.Stats.Lookup("faults"), "drops")
			abandoned = out.metric(network(r), "lost packets")
		}
		out.row(name, int64(r.Cycles), fmt.Sprintf("%.3fx", cycles/float64(res[0].Cycles)),
			int64(retransmits), int64(dropped), int64(abandoned))
		out.key("cycles/"+name, cycles)
		out.key("retransmits/"+name, retransmits)
		if r.Analysis != nil {
			out.rs.Artifacts = append(out.rs.Artifacts, Artifact{Name: "bottleneck", Render: r.Analysis.WriteJSON})
		}
	}
	return out.done()
}
