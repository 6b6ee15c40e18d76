package core

import (
	"strings"
	"testing"

	"mermaid/internal/machine"
	"mermaid/internal/stochastic"
	"mermaid/internal/workload"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(machine.Config{}); err == nil {
		t.Fatal("expected validation error")
	}
	wb, err := New(machine.PPC601Machine())
	if err != nil {
		t.Fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Streams() != 1 {
		t.Fatalf("ppc601 built with %d streams", m.Streams())
	}
}

func TestRunProgramAndReport(t *testing.T) {
	wb, err := New(machine.T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(workload.PingPong(5, 256))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := wb.Report(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"t805-grid", "simulated time", "slowdown/proc", "node0", "network"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunStochastic(t *testing.T) {
	wb, _ := New(machine.T805GridTaskLevel(2, 2))
	m, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunStochastic(stochastic.Desc{
		Nodes: 4, Level: stochastic.TaskLevel, Seed: 1, Iterations: 1,
		Phases: []stochastic.Phase{{Duration: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 100 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
}
