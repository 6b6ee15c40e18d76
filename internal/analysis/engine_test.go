package analysis_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/workload"
)

// pingPongReport runs the two-node ping-pong golden workload with the
// analyzer attached and returns the bottleneck report.
func pingPongReport() (*analysis.Report, error) {
	wb, err := core.New(machine.T805Grid(2, 1), core.WithAnalysis())
	if err != nil {
		return nil, err
	}
	m, err := wb.Build()
	if err != nil {
		return nil, err
	}
	res, err := m.RunProgram(workload.PingPong(4, 256))
	if err != nil {
		return nil, err
	}
	return res.Analysis, nil
}

// The two invariants that make the report trustworthy, checked on a real
// detailed-mode simulation: every CPU's four time classes sum exactly to the
// run length, and the critical-path segments partition the run exactly.
func TestPingPongReportInvariants(t *testing.T) {
	rep, err := pingPongReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("run with WithAnalysis returned a nil report")
	}
	if rep.Cycles <= 0 {
		t.Fatalf("report cycles = %d", rep.Cycles)
	}
	if len(rep.CPUs) != 2 {
		t.Fatalf("report has %d CPUs, want 2", len(rep.CPUs))
	}
	for _, d := range rep.CPUs {
		if sum := d.Compute + d.MemStall + d.CommBlocked + d.Idle; sum != rep.Cycles {
			t.Errorf("cpu %s: compute %d + mem-stall %d + comm-blocked %d + idle %d = %d, want exactly %d",
				d.Name, d.Compute, d.MemStall, d.CommBlocked, d.Idle, sum, rep.Cycles)
		}
		if d.Compute < 0 || d.MemStall < 0 || d.CommBlocked < 0 || d.Idle < 0 {
			t.Errorf("cpu %s has a negative time class: %+v", d.Name, d)
		}
		if d.CommBlocked == 0 {
			t.Errorf("cpu %s reports zero communication time in a ping-pong", d.Name)
		}
	}
	var pathSum int64
	for _, seg := range rep.CriticalPath {
		pathSum += seg.Cycles
		if seg.Cycles <= 0 {
			t.Errorf("critical-path segment %s/%s has %d cycles", seg.Component, seg.Kind, seg.Cycles)
		}
	}
	if pathSum != rep.Cycles {
		t.Errorf("critical path sums to %d, want exactly %d (segments: %+v)", pathSum, rep.Cycles, rep.CriticalPath)
	}
	if len(rep.Resources) == 0 {
		t.Error("report has no shared resources; bus/DRAM/link accounting did not register")
	}
	kinds := map[string]bool{}
	for _, res := range rep.Resources {
		kinds[res.Kind] = true
	}
	for _, want := range []string{"bus", "dram", "link", "router"} {
		if !kinds[want] {
			t.Errorf("no %q resource in the report (have %v)", want, kinds)
		}
	}
	if len(rep.Bottlenecks) == 0 {
		t.Error("report has no ranked bottlenecks")
	}
	for i, b := range rep.Bottlenecks {
		if b.Rank != i+1 {
			t.Errorf("bottleneck %d has rank %d", i, b.Rank)
		}
	}
}

// The JSON export must be deterministic: the same configuration and workload
// produce byte-identical reports at any farm worker count, so bottleneck
// numbers can be diffed across sweeps.
func TestReportJSONDeterministicAcrossWorkers(t *testing.T) {
	var outputs [][]byte
	for _, workers := range []int{1, 3} {
		pool := farm.New(workers)
		jobs := make([]farm.Job, 3)
		for i := range jobs {
			jobs[i] = farm.Job{Name: "pingpong", Run: func(*farm.RunContext) (any, error) {
				rep, err := pingPongReport()
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			}}
		}
		rep := pool.Run(jobs)
		if err := rep.Errs(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			outputs = append(outputs, r.Value.([]byte))
		}
	}
	for i, out := range outputs[1:] {
		if !bytes.Equal(outputs[0], out) {
			t.Fatalf("bottleneck JSON differs between run 0 and run %d (host parallelism leaked into the analysis)", i+1)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(outputs[0], &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"machine", "cycles", "cpus", "resources", "criticalPath", "bottlenecks"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON missing key %q", key)
		}
	}
}

// The rendered text section must carry the same exact-sum rows as the JSON.
func TestReportRender(t *testing.T) {
	rep, err := pingPongReport()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bottleneck analysis", "per-CPU time decomposition", "shared resources", "critical path", "top bottlenecks"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}
