package machine

import (
	"bytes"
	"fmt"
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
// render. shards marks the machines the sharded fabric accepts.
type reportCase struct {
	name   string
	cfg    Config
	shards bool
	run    func(*Machine) (*Result, error)
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
		{"t805-2x1", T805Grid(2, 1), true, jacobi},
		{"t805-2x2", T805Grid(2, 2), true, jacobi},
		{"t805-4x4", T805Grid(4, 4), true, jacobi},
		{"ppc601", PPC601Machine(), false, jacobi},
		{"ppc601-smp4", PPC601SMP(4), false, shared},
		{"ppc601-smp8", PPC601SMP(8), false, shared},
		{"dsm-2x2", DSMCluster(2, 2), false, jacobi},
		{"hybrid-2x2x2", HybridCluster(2, 2, 2), false, shared},
		{"task-torus", torus, true, exchange},
		{"t805-2x2/faults", faultedGrid, true, jacobi},
		{"task-torus/faults", faultedTorus, true, exchange},
	}
}

// runReport builds c's machine on env, with the given shard count, runs it
// and returns the machine and its result.
func runReport(t *testing.T, c reportCase, env sim.Env, shards int) (*Machine, *Result) {
	t.Helper()
	cfg := c.cfg
	cfg.Shards = shards
	m, err := Build(env, cfg)
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
// Result.Stats renders byte for byte the same with no observer, with a
// registry-only probe, with a timeline and with the bottleneck collector.
// Where the sharded fabric accepts the machine, two shards with no observer,
// with a registry-only probe and with a timeline render the report of one
// unobserved shard: the sharded fabric is an engine of its own, which
// counts events and averages link utilisation its own way (DESIGN.md §8).
// No sampler runs: a sampler's ticks are kernel events, and the report
// counts them.
func TestReportIndependentOfObservers(t *testing.T) {
	type observer struct {
		name   string
		env    func(seed uint64) sim.Env
		shards int
	}
	plain := func(seed uint64) sim.Env { return sim.NewEnv(seed, nil) }
	registry := func(seed uint64) sim.Env { return sim.NewEnv(seed, probe.New(probe.Config{})) }
	timeline := func(seed uint64) sim.Env { return sim.NewEnv(seed, probe.New(probe.Config{Timeline: true})) }
	collector := func(seed uint64) sim.Env { return plain(seed).WithCollector(analysis.New()) }
	single := []observer{{"registry", registry, 0}, {"timeline", timeline, 0}, {"collector", collector, 0}}
	sharded := []observer{{"shards=2", plain, 2}, {"shards=2/registry", registry, 2}, {"shards=2/timeline", timeline, 2}}
	for _, c := range reportCases() {
		check := func(ref observer, observers []observer) {
			_, res := runReport(t, c, ref.env(c.cfg.Seed), ref.shards)
			want := renderStats(t, res.Stats)
			for _, o := range observers {
				_, res := runReport(t, c, o.env(c.cfg.Seed), o.shards)
				if got := renderStats(t, res.Stats); got != want {
					t.Errorf("%s: the report with %s differs from the one with %s\n--- %s ---\n%s\n--- %s ---\n%s",
						c.name, o.name, ref.name, ref.name, want, o.name, got)
				}
			}
		}
		check(observer{"no observer", plain, 0}, single)
		if c.shards {
			check(observer{"one unobserved shard", plain, 1}, sharded)
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
// six fault quantities on one kernel and on two shards, each equal to the
// registry metric a sampler reads for it: summed over the shards' registries,
// except re-paths and downtime, which every shard's injector replica counts
// alike.
func TestFaultAccountingInReport(t *testing.T) {
	type quantity struct {
		set, metric, entry string
		once               bool // replicated on every shard: read one
	}
	quantities := []quantity{
		{"network ", "retransmits", "net.retransmits", false},
		{"network ", "lost packets", "net.lost", false},
		{"network ", "re-paths", "net.repaths", true},
		{"faults", "drops", "fault.drops", false},
		{"faults", "corruptions", "fault.corruptions", false},
		{"faults", "node1 downtime", "node1.downtime", true},
	}
	for _, c := range reportCases() {
		if c.cfg.Faults.Empty() {
			continue
		}
		for _, shards := range []int{0, 2} {
			m, res := runReport(t, c, sim.NewEnv(c.cfg.Seed, probe.New(probe.Config{})), shards)
			regs := []*probe.Registry{m.pb.Registry()}
			if shards > 0 {
				regs = regs[:0]
				for _, e := range m.envs {
					regs = append(regs, e.Registry())
				}
			}
			label := fmt.Sprintf("%s/shards=%d", c.name, shards)
			for _, q := range quantities {
				set := res.Stats.Lookup(q.set)
				if q.set == "network " {
					set = res.Stats.Prefixed(q.set)
				}
				got, ok := set.Get(q.metric)
				if !ok {
					t.Errorf("%s: the report has no %q", label, q.metric)
					continue
				}
				var want float64
				for i, reg := range regs {
					if q.once && i > 0 {
						break
					}
					want += reg.Lookup(q.entry).Read()
				}
				if got != want {
					t.Errorf("%s: report %s %v, registry %s %v", label, q.metric, got, q.entry, want)
				}
				if got == 0 && q.metric != "lost packets" {
					t.Errorf("%s: no %s: the schedule no longer exercises it", label, q.metric)
				}
			}
		}
	}
}
