package machine

import (
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stochastic"
)

// The switch budgets pin what a run costs in hand-offs between stacks
// (pearl.Kernel.Switches — exact and seed-determined, like the event count):
// none. Every waiting component of a built machine — CPU runner, abstract
// processor, packet, store-buffer drain, DSM manager and request handler — is
// a state machine on the event queue, so no machine spawns a process and the
// loop that fires the events never leaves the caller's stack.
//
// The event counts are pinned too. They are properties of the models and the
// event order, not of what carries the waits (they were printed by a kernel
// that ran every CPU, packet and server as a process). A change that moves a
// count has changed what runs when; if that is intended, re-pin it and say
// why.
const (
	ppc601Events, ppc601Switches     = 47142, 0
	t805GridEvents, t805GridSwitches = 534671, 0
	smpEvents, smpSwitches           = 105898, 0

	// The grid with the link between nodes 5 and 6 down from cycle 100,000
	// to 250,000, as the per-event path counts it.
	t805GridFaultedEvents = 534682
)

// runSwitches runs the description and returns the kernel's event and
// switch counts.
func runSwitches(t *testing.T, cfg Config, d stochastic.Desc) (events, switches uint64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunStochastic(d); err != nil {
		t.Fatal(err)
	}
	return m.k.EventCount(), m.k.Switches()
}

// A single-CPU node with private caches: the whole run is holds of one
// runner's chain.
func TestSwitchBudgetSingleNode(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 1, Level: stochastic.InstructionLevel, Iterations: 1, Seed: 7,
		Phases: []stochastic.Phase{{Instructions: 20000}},
	}
	events, switches := runSwitches(t, PPC601Machine(), d)
	t.Logf("ppc601: %d events, %d switches", events, switches)
	if events < 20000 {
		t.Fatalf("only %d events for 20000 instructions: the run did not execute", events)
	}
	if events != ppc601Events || switches != ppc601Switches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, ppc601Events, ppc601Switches)
	}
}

// Sixteen interleaved transputers (the benchmark's detailed-t805 request):
// computation, misses and communication alike are chain waits.
func TestSwitchBudgetT805Grid(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2, Seed: 7,
		Phases: []stochastic.Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	}
	events, switches := runSwitches(t, T805Grid(4, 4), d)
	t.Logf("t805 4x4: %d events, %d switches", events, switches)
	if events != t805GridEvents || switches != t805GridSwitches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, t805GridEvents, t805GridSwitches)
	}
}

// The same grid with a dispatch budget: every node has one CPU and no shared
// memory, so between two communication operations its runner serves its
// waits ahead of the kernel, and the kernel fires at most one event in
// twenty that it counts — the rest are holds run ahead of, each counted as
// the event it replaces. Watching the run changes neither: with the
// timeline and the bottleneck collector attached, the runners still run
// ahead. Nor do daemon events, which only cut the lines at their instants:
// a sampler every 10,000 cycles (the server's interval), whose run counts
// the plain run's events and one per tick, and a link down in the middle of
// the run, whose run counts t805GridFaultedEvents, the per-event path's.
func TestRunAheadDispatchFloor(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2, Seed: 7,
		Phases: []stochastic.Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	}
	cfg := T805Grid(4, 4)
	faulted := T805Grid(4, 4)
	faulted.Faults = &fault.Schedule{Links: []fault.LinkFault{{A: 5, B: 6, Window: fault.Window{From: 100_000, To: 250_000}}}}
	for _, c := range []struct {
		name  string
		cfg   Config
		env   sim.Env
		every pearl.Time
	}{
		{"plain", cfg, sim.NewEnv(cfg.Seed, nil), 0},
		{"observed", cfg, sim.NewEnv(cfg.Seed, probe.New(probe.Config{Timeline: true})).WithCollector(analysis.New()), 0},
		{"sampled", cfg, sim.NewEnv(cfg.Seed, nil), 10_000},
		{"faulted", faulted, sim.NewEnv(cfg.Seed, nil), 0},
	} {
		m, err := Build(c.env, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ticks := uint64(0)
		if c.every > 0 {
			if _, err := m.StartSampler(c.every, func(t analysis.Tick) { t.Report(); ticks++ }); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.RunStochastic(d)
		if err != nil {
			t.Fatal(err)
		}
		dispatches := m.k.Dispatches()
		t.Logf("t805 4x4 %s: %d events, %d dispatched, %d instructions, %d cycles", c.name, res.Events, dispatches, res.Instructions, res.Cycles)
		want := uint64(t805GridEvents) + ticks
		if c.cfg.Faults != nil {
			want = t805GridFaultedEvents
		}
		if res.Events != want {
			t.Errorf("%s: %d events; the per-event path counts %d", c.name, res.Events, want)
		}
		if 20*dispatches > res.Events {
			t.Errorf("%s: %d of %d events dispatched (%.1f%%); want at most 5%%",
				c.name, dispatches, res.Events, 100*float64(dispatches)/float64(res.Events))
		}
	}
}

// Four PowerPC 601s behind one snoopy bus: every miss, upgrade and write-back
// of one CPU interleaves with the other three's.
func TestSwitchBudgetSMP(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 4, Level: stochastic.InstructionLevel, Iterations: 1, Seed: 7,
		Phases: []stochastic.Phase{{Instructions: 10000, CV: 0.1}},
	}
	events, switches := runSwitches(t, PPC601SMP(4), d)
	t.Logf("ppc601 smp4: %d events, %d switches", events, switches)
	if events != smpEvents || switches != smpSwitches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, smpEvents, smpSwitches)
	}
}
