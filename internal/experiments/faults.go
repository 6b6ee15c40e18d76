package experiments

import (
	"fmt"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
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
	run := func(sched *fault.Schedule, analyze bool) (*machine.Result, *machine.Machine, error) {
		cfg := machine.T805Grid(2, 2)
		cfg.Faults = sched
		env := sim.NewEnv(cfg.Seed, nil)
		if analyze {
			env = env.WithCollector(analysis.New())
		}
		m, err := machine.Build(env, cfg)
		if err != nil {
			return nil, nil, err
		}
		res, err := m.RunProgram(workload.Jacobi1D(nodes, cells, iters))
		if err != nil {
			return nil, nil, err
		}
		return res, m, nil
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

	tb := stats.NewTable("scenario", "cycles", "slowdown", "retransmits", "dropped", "abandoned")
	keys := Keys{}
	var arts []Artifact
	var base float64
	for _, sc := range scenarios {
		res, m, err := run(sc.sched, sc.analyze)
		if err != nil {
			return nil, fmt.Errorf("fault-resilience %s: %w", sc.name, err)
		}
		cycles := float64(res.Cycles)
		if sc.name == "healthy" {
			base = cycles
		}
		var retransmits, dropped, abandoned uint64
		if m.Faults() != nil {
			retransmits = m.Network().Retransmits()
			dropped = m.Faults().Drops()
			abandoned = m.Network().Lost()
		}
		tb.Row(sc.name, int64(res.Cycles), fmt.Sprintf("%.3fx", cycles/base),
			int64(retransmits), int64(dropped), int64(abandoned))
		keys["cycles/"+sc.name] = cycles
		keys["retransmits/"+sc.name] = float64(retransmits)
		if res.Analysis != nil {
			arts = append(arts, Artifact{Name: "bottleneck", Render: res.Analysis.WriteJSON})
		}
	}
	return &ResultSet{Table: tb, Keys: keys, Artifacts: arts}, nil
}
