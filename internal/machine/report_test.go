package machine

import (
	"bytes"
	"slices"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/topology"
	"mermaid/internal/workload"
)

// reportCase is one machine and workload whose report the observer tests
// render.
type reportCase struct {
	name string
	cfg  Config
	run  func(*Machine) (*Result, error)
}

// reportFaults is a schedule that exercises every fault quantity the report
// carries: a link down for a while (re-paths, drops), node 1 crashed for a
// while (downtime) and noise on every link (drops, corruptions), all
// recovered by retransmission.
func reportFaults() *fault.Schedule {
	return &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 2_000, To: 30_000}}},
		Nodes:   []fault.NodeFault{{Node: 1, Window: fault.Window{From: 5_000, To: 9_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02, Corrupt: 0.05}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	}
}

// reportCases are each detailed preset running Jacobi (the machines whose
// processors share a node, which message passing cannot address, run the
// shared counter), a task-level torus, and a faulted run on each level.
func reportCases() []reportCase {
	jacobi := func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.Jacobi1D(m.Streams(), 4*m.Streams(), 2))
	}
	shared := func(m *Machine) (*Result, error) {
		return m.RunProgram(workload.SharedCounter(m.Streams(), 20))
	}
	torus := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.VirtualCutThrough)
	torus.Seed = 5
	exchange := func(m *Machine) (*Result, error) { return m.RunStochastic(taskExchangeDesc(m.Streams(), 3)) }
	faultedGrid, faultedTorus := T805Grid(2, 2), torus
	faultedGrid.Faults, faultedTorus.Faults = reportFaults(), reportFaults()
	return []reportCase{
		{"t805-2x1", T805Grid(2, 1), jacobi},
		{"t805-2x2", T805Grid(2, 2), jacobi},
		{"t805-4x4", T805Grid(4, 4), jacobi},
		{"ppc601", PPC601Machine(), jacobi},
		{"ppc601-smp4", PPC601SMP(4), shared},
		{"ppc601-smp8", PPC601SMP(8), shared},
		{"dsm-2x2", DSMCluster(2, 2), jacobi},
		{"hybrid-2x2x2", HybridCluster(2, 2, 2), shared},
		{"task-torus", torus, exchange},
		{"t805-2x2/faults", faultedGrid, jacobi},
		{"task-torus/faults", faultedTorus, exchange},
	}
}

// runReport builds c's machine on env, runs it and returns the machine and
// its result.
func runReport(t *testing.T, c reportCase, env sim.Env) (*Machine, *Result) {
	t.Helper()
	m, err := Build(env, c.cfg)
	if err != nil {
		t.Fatalf("%s: build: %v", c.name, err)
	}
	res, err := c.run(m)
	if err != nil {
		t.Fatalf("%s: run: %v", c.name, err)
	}
	return m, res
}

// TestReportIndependentOfObservers holds the report to the simulation alone:
// Result.Stats renders byte for byte the same with no observer, with a probe
// without a timeline, with a timeline and with the bottleneck collector. A
// sampler's ticks are kernel events, so under a sampler ticking every 1,000
// cycles the report is the same but for the root's "events", which grows by
// exactly the ticks fired.
func TestReportIndependentOfObservers(t *testing.T) {
	type observer struct {
		name string
		env  func(seed uint64) sim.Env
	}
	plain := func(seed uint64) sim.Env { return sim.NewEnv(seed, nil) }
	observers := []observer{
		{"bare probe", func(seed uint64) sim.Env { return sim.NewEnv(seed, probe.New(probe.Config{})) }},
		{"timeline", func(seed uint64) sim.Env { return sim.NewEnv(seed, probe.New(probe.Config{Timeline: true})) }},
		{"collector", func(seed uint64) sim.Env { return plain(seed).WithCollector(analysis.New()) }},
	}
	for _, c := range reportCases() {
		_, res := runReport(t, c, plain(c.cfg.Seed))
		want := renderStats(t, res.Stats)
		for _, o := range observers {
			_, res := runReport(t, c, o.env(c.cfg.Seed))
			if got := renderStats(t, res.Stats); got != want {
				t.Errorf("%s: the report with %s differs from the one with no observer\n--- no observer ---\n%s\n--- %s ---\n%s",
					c.name, o.name, want, o.name, got)
			}
		}

		m := buildPlain(t, c.cfg)
		calls := 0
		finish, err := m.StartSampler(1000, func(t analysis.Tick) { t.Report(); calls++ })
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := c.run(m)
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		finish(sampled)
		ticks := uint64(calls - 1) // every call but the end-of-run one is a tick
		if want := uint64(res.Cycles / 1000); ticks+1 < want || ticks > want || sampled.Events != res.Events+ticks {
			t.Errorf("%s: sampled run counts %d events, %d unsampled, %d ticks over %d cycles", c.name, sampled.Events, res.Events, ticks, res.Cycles)
		}
		root := *sampled.Stats
		root.Metrics = slices.Clone(root.Metrics)
		i := slices.IndexFunc(root.Metrics, func(m stats.Metric) bool { return m.Name == "events" })
		if i < 0 {
			t.Fatalf("%s: the sampled report has no events", c.name)
		}
		root.Metrics[i].Value = float64(res.Events)
		if got := renderStats(t, &root); got != want {
			t.Errorf("%s: the sampled report differs beyond its events\n--- no observer ---\n%s\n--- sampled ---\n%s", c.name, want, got)
		}
	}
}

// renderStats renders a report tree as the CLI prints it.
func renderStats(t *testing.T, s *stats.Set) string {
	t.Helper()
	var b bytes.Buffer
	if err := stats.RenderSet(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFaultAccountingInReport requires a faulted run's report to carry the
// six fault quantities, every one exercised, node 1's downtime the length of
// its scheduled window.
func TestFaultAccountingInReport(t *testing.T) {
	quantities := []struct{ set, metric string }{
		{"network ", "retransmits"},
		{"network ", "lost packets"},
		{"network ", "re-paths"},
		{"faults", "drops"},
		{"faults", "corruptions"},
		{"faults", "node1 downtime"},
	}
	window := reportFaults().Nodes[0].Window
	for _, c := range reportCases() {
		if c.cfg.Faults.Empty() {
			continue
		}
		_, res := runReport(t, c, sim.NewEnv(c.cfg.Seed, nil))
		for _, q := range quantities {
			set := res.Stats.Lookup(q.set)
			if q.set == "network " {
				set = res.Stats.Prefixed(q.set)
			}
			got, ok := set.Get(q.metric)
			if !ok {
				t.Errorf("%s: the report has no %q", c.name, q.metric)
				continue
			}
			if got == 0 && q.metric != "lost packets" {
				t.Errorf("%s: no %s: the schedule no longer exercises it", c.name, q.metric)
			}
			if q.metric == "node1 downtime" && res.Cycles > window.To && got != float64(window.To-window.From) {
				t.Errorf("%s: node1 downtime %v, its window is %d cycles", c.name, got, window.To-window.From)
			}
		}
	}
}
