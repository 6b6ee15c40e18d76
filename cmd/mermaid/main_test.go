package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/experiments"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
	"mermaid/internal/workload"
)

func tableExp(name string, deterministic bool) experiments.Experiment {
	return experiments.Experiment{
		Name:          name,
		Deterministic: deterministic,
		Run: func(experiments.Spec) (*experiments.ResultSet, error) {
			tb := stats.NewTable("value")
			tb.Row(name)
			return &experiments.ResultSet{Table: tb, Keys: experiments.Keys{}}, nil
		},
	}
}

func failExp(name string, err error) experiments.Experiment {
	return experiments.Experiment{
		Name: name,
		Run: func(experiments.Spec) (*experiments.ResultSet, error) {
			return nil, err
		},
	}
}

// A failing experiment must not stop the ones after it: every experiment runs,
// every table prints, and every failure is reported in the returned error.
func TestRunExperimentSetSurvivesFailures(t *testing.T) {
	errA := errors.New("boom-a")
	errB := errors.New("boom-b")
	exps := []experiments.Experiment{
		tableExp("first", true),
		failExp("bad-a", errA),
		tableExp("middle", true),
		failExp("bad-b", errB),
		tableExp("last", true),
	}

	var out bytes.Buffer
	err := runExperimentSet(&out, exps, false, 2, nil)
	if err == nil {
		t.Fatal("runExperimentSet returned nil error despite two failing experiments")
	}
	for _, want := range []error{errA, errB} {
		if !errors.Is(err, want) {
			t.Errorf("joined error %v does not wrap %v", err, want)
		}
	}
	for _, name := range []string{"first", "middle", "last"} {
		if !strings.Contains(out.String(), "== experiment "+name+" ==") {
			t.Errorf("output missing header for experiment %q after a failure:\n%s", name, out.String())
		}
	}
	// Order must stay canonical even though runs may finish out of order.
	if f, l := strings.Index(out.String(), "first"), strings.Index(out.String(), "last"); f > l {
		t.Errorf("experiment output out of submission order:\n%s", out.String())
	}
}

func TestRunExperimentsUnknownName(t *testing.T) {
	var out bytes.Buffer
	err := runExperiments(&out, "no-such-experiment", false, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown-experiment error", err)
	}
}

// timelineRun builds a two-node machine with a timeline probe, runs a
// ping-pong workload and returns the exported trace-event JSON.
func timelineRun() ([]byte, error) {
	cfg := machine.T805Grid(2, 1)
	pb := probe.New(probe.Config{Timeline: true})
	wb, err := core.New(cfg, core.WithProbe(pb))
	if err != nil {
		return nil, err
	}
	m, err := wb.Build()
	if err != nil {
		return nil, err
	}
	if _, err := m.RunProgram(workload.PingPong(4, 256)); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pb.Timeline().WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// The timeline export is the golden artefact of the observability layer: it
// must be valid Chrome trace-event JSON with monotonic per-track timestamps
// and spans from the CPU, cache and network models on every node — and it
// must come out byte-identical regardless of how many host workers run the
// simulations around it.
func TestTimelineGoldenTwoNodePingPong(t *testing.T) {
	var outputs [][]byte
	for _, workers := range []int{1, 3} {
		pool := farm.New(workers)
		jobs := make([]farm.Job, 3)
		for i := range jobs {
			jobs[i] = farm.Job{Name: "timeline", Run: func(*farm.RunContext) (any, error) {
				return timelineRun()
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
			t.Fatalf("timeline JSON differs between run 0 and run %d (host parallelism leaked into the trace)", i+1)
		}
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(outputs[0], &doc); err != nil {
		t.Fatalf("timeline is not valid trace-event JSON: %v", err)
	}
	trackName := map[[2]int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			trackName[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"].(string)
		}
	}
	spansOn := map[string]int{}
	lastTs := map[[2]int]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Fatalf("track %q timestamps not monotonic: %d after %d", trackName[key], ev.Ts, lastTs[key])
		}
		lastTs[key] = ev.Ts
		if ev.Ph == "X" {
			if ev.Dur == nil {
				t.Fatalf("span %q on %q lacks dur", ev.Name, trackName[key])
			}
			spansOn[trackName[key]]++
		}
	}
	for _, want := range []string{
		"node0.cpu0.tasks", "node1.cpu0.tasks", // CPU compute/comm spans
		"node0.cpu0.miss", "node1.cpu0.miss", // cache miss fills
	} {
		if spansOn[want] == 0 {
			t.Errorf("no spans on track %q (have %v)", want, spansOn)
		}
	}
	netSpans := 0
	for name, n := range spansOn {
		if strings.HasPrefix(name, "net.link") {
			netSpans += n
		}
	}
	if netSpans == 0 {
		t.Errorf("no per-hop packet spans on any net.link track (have %v)", spansOn)
	}
}

// Replicated runs derive a distinct seed per replica and report one row each,
// plus the latency distribution merged over all of them — on the parallel
// engine too, whose fabric is neither Network() nor Compact().
func TestRunReplicated(t *testing.T) {
	runOnce := func(m *machine.Machine) (*machine.Result, error) {
		return m.RunProgram(workload.Jacobi1D(m.Streams(), 64, 2))
	}
	var latency []string
	for _, shards := range []int{0, 2} {
		cfg := machine.T805Grid(2, 2)
		cfg.Shards = shards
		var out bytes.Buffer
		if err := runReplicated(&out, cfg, "jacobi", 3, 2, nil, nil, runOnce); err != nil {
			t.Fatalf("shards %d: runReplicated: %v", shards, err)
		}
		if got := strings.Count(out.String(), "jacobi"); got != 4 { // header line + one row per replica
			t.Errorf("shards %d: report mentions jacobi %d times, want 4 (3 replica rows):\n%s", shards, got, out.String())
		}
		if !strings.Contains(out.String(), "runs") {
			t.Errorf("shards %d: report missing aggregate summary:\n%s", shards, out.String())
		}
		i := strings.Index(out.String(), "message latency over all replicas:")
		if i < 0 {
			t.Fatalf("shards %d: report missing the merged message latency:\n%s", shards, out.String())
		}
		latency = append(latency, out.String()[i:])
	}
	if latency[0] != latency[1] {
		t.Errorf("merged latency differs between engines:\n%s%s", latency[0], latency[1])
	}
}

// The CLI's observers — sparklines, CSV history and the HTTP scope — share one
// sampling chain: attaching all three costs the events of attaching one, and
// none of them moves simulated time.
func TestObserversShareOneChain(t *testing.T) {
	run := func(monitor pearl.Time, csv bool, scope *analysis.Scope) (*machine.Result, sparklines, *probe.Registry) {
		pb := probe.New(probe.Config{})
		wb, err := core.New(machine.T805Grid(2, 2), core.WithProbe(pb))
		if err != nil {
			t.Fatal(err)
		}
		m, err := wb.Build()
		if err != nil {
			t.Fatal(err)
		}
		view, finish, err := observe(m.Kernel(), pb.Registry(), monitor, csv, scope)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunProgram(workload.Jacobi1D(4, 64, 2))
		if err != nil {
			t.Fatal(err)
		}
		finish(res.Cycles)
		return res, view, pb.Registry()
	}
	plain, view, _ := run(0, false, nil)
	if view != nil {
		t.Error("sparklines without -monitor")
	}
	one, _, _ := run(1000, false, nil)
	scope := analysis.NewScope()
	all, view, reg := run(1000, true, scope)
	if one.Cycles != plain.Cycles || all.Cycles != plain.Cycles {
		t.Errorf("observers moved simulated time: plain %d, one %d, all %d", plain.Cycles, one.Cycles, all.Cycles)
	}
	ticks := uint64(plain.Cycles / 1000)
	if one.Events != plain.Events+ticks || all.Events != one.Events {
		t.Errorf("events: plain %d, one observer %d, three %d; want plain + %d ticks for both", plain.Events, one.Events, all.Events, ticks)
	}
	// Every consumer saw every sample, the last one at the run's end.
	var sb strings.Builder
	if err := view.render(&sb); err != nil {
		t.Fatal(err)
	}
	samples := fmt.Sprintf("%d samples", ticks+1)
	for _, label := range []string{"bus utilization", "link utilization", "messages", "kernel events"} {
		if !strings.Contains(sb.String(), label) {
			t.Errorf("sparklines missing %q:\n%s", label, sb.String())
		}
	}
	if got := strings.Count(sb.String(), samples); got != 4 {
		t.Errorf("%d of 4 sparklines have %s:\n%s", got, samples, sb.String())
	}
	if n := reg.Lookup("kernel.events").Series.Len(); n != int(ticks)+1 {
		t.Errorf("CSV history has %d rows, want %d", n, ticks+1)
	}
	sb.Reset()
	if err := scope.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("mermaid_virtual_cycles %d\n", all.Cycles),
		fmt.Sprintf("mermaid_events_total %d\n", all.Events),
		"mermaid_net_messages ",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scope metrics missing %q", want)
		}
	}
}
