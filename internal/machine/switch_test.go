package machine

import (
	"testing"

	"mermaid/internal/analysis"
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
// ahead.
func TestRunAheadDispatchFloor(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2, Seed: 7,
		Phases: []stochastic.Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	}
	cfg := T805Grid(4, 4)
	for _, c := range []struct {
		name string
		env  sim.Env
	}{
		{"plain", sim.NewEnv(cfg.Seed, nil)},
		{"observed", sim.NewEnv(cfg.Seed, probe.New(probe.Config{Timeline: true})).WithCollector(analysis.New())},
	} {
		m, err := Build(c.env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunStochastic(d)
		if err != nil {
			t.Fatal(err)
		}
		dispatches := m.k.Dispatches()
		t.Logf("t805 4x4 %s: %d events, %d dispatched, %d instructions", c.name, res.Events, dispatches, res.Instructions)
		if res.Events != t805GridEvents {
			t.Errorf("%s: %d events; pinned %d", c.name, res.Events, t805GridEvents)
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
