package machine

import (
	"testing"

	"mermaid/internal/stochastic"
)

// The switch budgets gate what the wall clock cannot on a noisy runner: how
// many times a run hands the baton from one stack to another
// (pearl.Kernel.Switches — exact and seed-determined, like the event count).
// Before the baton-passing kernel every process activation cost two
// transfers, so both ratios below were about 2.
//
// The counts themselves are pinned too. They are properties of the models
// and the event order, not of the mechanism that carries the baton: the
// event counts below were printed by the channel-baton kernel (PR 19) and are
// unchanged under coroutine workers and under the stackless memory hierarchy.
// The switch counts of the two multi-CPU machines were 285,317 and 70,094 as
// long as a miss blocked its process at every bus and DRAM hold; with the
// access a pearl.Process.HoldWhile chain (cache.Port.Begin/Step) what is left
// is communication — a T805 node's sends, receives and link transfers — and,
// on a machine without any, the way into each CPU's process and out again.
// A change that moves a count has changed what runs when; if that is
// intended, re-pin it and say why.
const (
	ppc601Events, ppc601Switches     = 47142, 2
	t805GridEvents, t805GridSwitches = 534671, 216
	smpEvents, smpSwitches           = 105898, 9
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
	return m.Kernel().EventCount(), m.Kernel().Switches()
}

// A single-CPU node with private caches has nothing to interleave with: the
// whole run is holds of one process, whose expiry resumes it in place. The
// number of switches is a constant (into the process, and back out at the
// end), not a function of the instruction count.
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
	if switches > events/50 {
		t.Errorf("%d switches for %d events; want at most events/50", switches, events)
	}
	if events != ppc601Events || switches != ppc601Switches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, ppc601Events, ppc601Switches)
	}
}

// Sixteen interleaved transputers (the benchmark's detailed-t805 request):
// computation, misses included, runs as stackless chains, so only
// communication moves the baton.
func TestSwitchBudgetT805Grid(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 16, Level: stochastic.InstructionLevel, Iterations: 2, Seed: 7,
		Phases: []stochastic.Phase{{
			Instructions: 5000, CV: 0.1,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	}
	events, switches := runSwitches(t, T805Grid(4, 4), d)
	t.Logf("t805 4x4: %d events, %d switches (%.2f per event)", events, switches, float64(switches)/float64(events))
	if limit := events / 20; switches > limit {
		t.Errorf("%d switches for %d events; want at most 0.05 per event (%d)", switches, events, limit)
	}
	if events != t805GridEvents || switches != t805GridSwitches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, t805GridEvents, t805GridSwitches)
	}
}

// Four PowerPC 601s behind one snoopy bus: every miss, upgrade and write-back
// of one CPU interleaves with the other three's, and none of it takes a
// process.
func TestSwitchBudgetSMP(t *testing.T) {
	d := stochastic.Desc{
		Nodes: 4, Level: stochastic.InstructionLevel, Iterations: 1, Seed: 7,
		Phases: []stochastic.Phase{{Instructions: 10000, CV: 0.1}},
	}
	events, switches := runSwitches(t, PPC601SMP(4), d)
	t.Logf("ppc601 smp4: %d events, %d switches (%.4f per event)", events, switches, float64(switches)/float64(events))
	if limit := events / 20; switches > limit {
		t.Errorf("%d switches for %d events; want at most 0.05 per event (%d)", switches, events, limit)
	}
	if events != smpEvents || switches != smpSwitches {
		t.Errorf("%d events, %d switches; pinned %d, %d", events, switches, smpEvents, smpSwitches)
	}
}
