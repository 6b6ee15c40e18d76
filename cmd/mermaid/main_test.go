package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/experiments"
	"mermaid/internal/farm"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
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

// TestSweepNameGivenTwiceRefused: a repeated -sweep name would run only its
// last value, so it is refused naming the parameter.
func TestSweepNameGivenTwiceRefused(t *testing.T) {
	if _, err := parseSweep("sizes=4;sizes=8"); err == nil || !strings.Contains(err.Error(), "sizes") {
		t.Fatalf("err = %v, want a refusal naming sizes", err)
	}
	sweep, err := parseSweep("sizes=4,8; assocs=2")
	if err != nil || sweep["sizes"] != "4,8" || sweep["assocs"] != "2" {
		t.Fatalf("sweep = %v, err = %v", sweep, err)
	}
}

// An -experiment run reads none of the single-run flags: each one given
// with it is refused, the way -sweep is refused without -experiment, and no
// file a refused flag names is written.
func TestExperimentRefusesSingleRunFlags(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, dir, "-experiment", "calibration",
		"-timeline", "t.json", "-metrics", "m.csv", "-repeats", "3")
	if code == 0 || len(stdout) != 0 {
		t.Fatalf("exit %d, stdout %.80q; want a refusal", code, stdout)
	}
	for _, flag := range []string{"-timeline", "-metrics", "-repeats"} {
		if !bytes.Contains(stderr, []byte(flag)) {
			t.Errorf("stderr %q does not name %s", stderr, flag)
		}
	}
	for _, f := range []string{"t.json", "m.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			t.Errorf("the refused run wrote %s", f)
		}
	}
	if code, _, stderr := runCLI(t, dir, "-experiment", "calibration", "-csv", "-parallel", "1"); code != 0 {
		t.Errorf("-experiment with -csv and -parallel: exit %d, stderr %q", code, stderr)
	}
}

// A task-level machine on shards runs from the command line when no
// observer is asked for, and reports what the same machine on one shard
// reports but for the host wall-clock lines.
func TestShardedRunWithoutObservers(t *testing.T) {
	dir := t.TempDir()
	desc := `{"Level": "task", "Seed": 3, "Iterations": 3,
		"Phases": [{"Duration": 2000, "CV": 0.3, "Comm": {"Pattern": "nearest", "Bytes": 1024, "Jitter": true}}]}`
	if err := os.WriteFile(filepath.Join(dir, "desc.json"), []byte(desc), 0o644); err != nil {
		t.Fatal(err)
	}
	reports := map[int][]byte{}
	for _, shards := range []int{1, 2} {
		cfg := machine.GenericTaskMachine(machine.T805GridTaskLevel(4, 4).Network.Topology, 16, 0)
		cfg.Shards = shards
		doc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shards%d.json", shards)
		if err := os.WriteFile(filepath.Join(dir, name), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCLI(t, dir, "-config", name, "-desc", "desc.json")
		if code != 0 {
			t.Fatalf("shards %d: exit %d, stderr %q", shards, code, stderr)
		}
		reports[shards] = stripWallLines(stdout)
	}
	if !bytes.Equal(reports[1], reports[2]) {
		t.Errorf("shards 2 reports differently from shards 1:\n%s\n---\n%s", reports[2], reports[1])
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
// plus the latency distribution merged over all of them.
func TestRunReplicated(t *testing.T) {
	runOnce := func(m *machine.Machine) (*machine.Result, error) {
		return m.RunProgram(workload.Jacobi1D(m.Streams(), 64, 2))
	}
	var out bytes.Buffer
	if err := runReplicated(&out, machine.T805Grid(2, 2), "jacobi", 3, 2, nil, nil, runOnce); err != nil {
		t.Fatalf("runReplicated: %v", err)
	}
	if got := strings.Count(out.String(), "jacobi"); got != 4 { // header line + one row per replica
		t.Errorf("report mentions jacobi %d times, want 4 (3 replica rows):\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "runs") {
		t.Errorf("report missing aggregate summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "message latency over all replicas:") {
		t.Errorf("report missing the merged message latency:\n%s", out.String())
	}
}

// A host trace records the farm workers of a -repeats run; a single run has
// none, so -host-trace without -repeats is refused rather than writing an
// empty trace.
func TestHostTraceNeedsRepeats(t *testing.T) {
	dir := t.TempDir()
	run := []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-host-trace", "h.json"}
	code, stdout, stderr := runCLI(t, dir, run...)
	if code == 0 || len(stdout) != 0 || !bytes.Contains(stderr, []byte("-host-trace")) {
		t.Errorf("single run: exit %d, stdout %.80q, stderr %q; want a refusal naming -host-trace", code, stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "h.json")); err == nil {
		t.Error("the refused run wrote h.json")
	}
	code, _, stderr = runCLI(t, dir, append(run, "-repeats", "2", "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("-repeats 2: exit %d, stderr %q", code, stderr)
	}
	if bytes.Contains(stderr, []byte("(0 host trace events)")) || !bytes.Contains(stderr, []byte("host trace events")) {
		t.Errorf("-repeats 2: stderr %q; want a non-empty host trace written", stderr)
	}
}

// The CLI's observers — sparklines, CSV history and the HTTP scope — share one
// sampling chain: attaching all three costs the events of attaching one, and
// none of them moves simulated time.
func TestObserversShareOneChain(t *testing.T) {
	run := func(monitor pearl.Time, csv *stats.History, scope *analysis.Scope) (*machine.Result, sparklines) {
		m, err := machine.New(machine.T805Grid(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		view, finish, err := observe(m, monitor, csv, scope)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunProgram(workload.Jacobi1D(4, 64, 2))
		if err != nil {
			t.Fatal(err)
		}
		finish(res)
		return res, view
	}
	plain, view := run(0, nil, nil)
	if view != nil {
		t.Error("sparklines without -monitor")
	}
	one, _ := run(1000, nil, nil)
	history, scope := new(stats.History), analysis.NewScope()
	all, view := run(1000, history, scope)
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
	sb.Reset()
	if err := history.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n") - 1; n != int(ticks)+1 {
		t.Errorf("CSV history has %d rows, want %d", n, ticks+1)
	}
	sb.Reset()
	if err := scope.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("mermaid_virtual_cycles %d\n", all.Cycles),
		fmt.Sprintf("mermaid_events_total %d\n", all.Events),
		"mermaid_network_mesh_2x2__messages ",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scope metrics missing %q", want)
		}
	}
}

// resolve resolves spec as the command does, failing the test on an error.
func resolve(t *testing.T, spec core.RunSpec) (machine.Config, func(*machine.Machine) (*machine.Result, error)) {
	t.Helper()
	cfg, run, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, run
}

// build builds a fresh machine from cfg.
func build(t *testing.T, cfg machine.Config) *machine.Machine {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyApp describes app on preset at tiny sizes.
func tinyApp(preset, app string) core.RunSpec {
	return core.RunSpec{Preset: preset, App: app, Rounds: 2, Iters: 1, Bytes: 64, Cells: 16, Dim: 4}
}

// A misspelt field in a -desc file is an error, as it is for POST /jobs —
// not a run of a different workload than the one written down.
func TestRunDescRejectsTypos(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"typo.json": `{"Level": "task", "Sed": 3, "Iterations": 1,
			"Phases": [{"Duration": 100, "Comm": {"Pattern": "nearest", "Byts": 64}}]}`,
		"trailing.json": `{"Level": "task", "Iterations": 1, "Phases": [{"Duration": 100}]} x`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := core.RunSpec{Preset: "t805-task-4x4", Desc: path}.Resolve()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want a parse error naming the file", name, err)
		}
	}
}

func TestRunTraceFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t0.mmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ops.WriteAll(f, []ops.Op{ops.NewArith(ops.Mul, ops.TypeInt)}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg, run := resolve(t, core.RunSpec{Preset: "ppc601", Traces: []string{path}})
	res, err := run(build(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 1 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

// Every preset runs every application, at tiny sizes, to an answer or to an
// error: a program that does not fit the machine (a message-passing program
// on a single processor, eight ranks on a four-node network) must never
// panic.
func TestEveryPresetRunsEveryApp(t *testing.T) {
	for _, preset := range core.PresetNames() {
		for _, app := range core.AppNames() {
			t.Run(preset+"/"+app, func(t *testing.T) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("panic: %v", v)
					}
				}()
				cfg, run := resolve(t, tinyApp(preset, app))
				res, err := run(build(t, cfg))
				switch {
				case err != nil:
					t.Logf("error: %v", err)
				case res == nil:
					t.Fatal("no result and no error")
				}
			})
		}
	}
}

// TestRunAppRefusals: an application the machine cannot run is refused
// before the run, naming what is missing; the others on that machine run.
func TestRunAppRefusals(t *testing.T) {
	for _, tc := range []struct {
		preset, app, want string // want "" means the run succeeds
	}{
		{"hybrid-2x2x2", "jacobi", "jacobi runs one message-passing rank per processor, but the machine has 8 processors and 4 network nodes"},
		{"hybrid-2x2x2", "matmul", "matmul runs one message-passing rank per processor, but the machine has 8 processors and 4 network nodes"},
		{"hybrid-2x2x2", "allreduce", "allreduce runs one"},
		{"hybrid-2x2x2", "transpose", "transpose runs one"},
		{"hybrid-2x2x2", "butterfly", "butterfly runs one"},
		{"hybrid-2x2x2", "pingpong", "pingpong runs one"},
		{"hybrid-2x2x2", "shared", ""},
		{"hybrid-2x2x2", "jacobi-dsm", "needs a machine with virtual shared memory"},
		{"dsm-2x2", "jacobi", ""},
		{"dsm-2x2", "jacobi-dsm", ""},
		{"t805-2x2", "allreduce", ""},
		{"ppc601-smp4", "pingpong", "pingpong needs a 2-processor machine, have 4"},
	} {
		cfg, run := resolve(t, tinyApp(tc.preset, tc.app))
		_, err := run(build(t, cfg))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s -app %s: %v", tc.preset, tc.app, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s -app %s: error %v, want one containing %q", tc.preset, tc.app, err, tc.want)
		}
	}
}

// A size an application reads must be at least 1: the spec is refused
// before any machine is built, and the command exits nonzero without a run.
// An application that does not read a size ignores it. A negative -monitor
// interval is refused too, not taken as "off".
func TestNonPositiveSizesRefused(t *testing.T) {
	for _, tc := range []struct {
		app  string
		set  func(*core.RunSpec)
		want string // "" means the spec resolves
	}{
		{"pingpong", func(s *core.RunSpec) { s.Bytes = -5 }, "pingpong needs -bytes of at least 1, have -5"},
		{"pingpong", func(s *core.RunSpec) { s.Rounds = -2 }, "pingpong needs -rounds of at least 1, have -2"},
		{"pingpong", func(s *core.RunSpec) { s.Rounds = 0 }, "pingpong needs -rounds of at least 1, have 0"},
		{"jacobi", func(s *core.RunSpec) { s.Iters = -1 }, "jacobi needs -iters of at least 1, have -1"},
		{"jacobi-dsm", func(s *core.RunSpec) { s.Iters = 0 }, "jacobi-dsm needs -iters of at least 1"},
		{"transpose", func(s *core.RunSpec) { s.Bytes = 0 }, "transpose needs -bytes of at least 1"},
		{"butterfly", func(s *core.RunSpec) { s.Iters = -3 }, "butterfly needs -iters of at least 1"},
		{"shared", func(s *core.RunSpec) { s.Iters = -1 }, "shared needs -iters of at least 1"},
		{"jacobi", func(s *core.RunSpec) { s.Bytes, s.Rounds = -1, -1 }, ""},
		{"allreduce", func(s *core.RunSpec) { s.Bytes, s.Rounds, s.Iters = -1, -1, -1 }, ""},
	} {
		spec := tinyApp("t805-2x2", tc.app)
		tc.set(&spec)
		_, _, err := spec.Resolve()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.app, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.app, err, tc.want)
		}
	}
	dir := t.TempDir()
	// A grid the pipeline would run, were -parallel not refused first.
	grid := `{"name": "refused", "seed": 1, "experiments": [{"name": "validity"}]}`
	if err := os.WriteFile(filepath.Join(dir, "grid.json"), []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string // what the refusal must name
		args []string
	}{
		{"-bytes", []string{"-preset", "t805-2x1", "-app", "pingpong", "-bytes", "-5"}},
		{"-rounds", []string{"-preset", "t805-2x1", "-app", "pingpong", "-rounds", "-2"}},
		{"-iters", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "-1"}},
		{"-monitor", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-monitor", "-5"}},
		{"-repeats", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-repeats", "0"}},
		{"-repeats", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-repeats", "-3"}},
		{"-parallel", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-repeats", "2", "-parallel", "0"}},
		{"-parallel", []string{"-preset", "t805-2x2", "-app", "jacobi", "-iters", "2", "-repeats", "2", "-parallel", "-4"}},
		{"-parallel", []string{"pipeline", "run", "-grid", "grid.json", "-out", "refused", "-parallel", "0"}},
	} {
		code, stdout, stderr := runCLI(t, dir, tc.args...)
		if code == 0 || len(stdout) != 0 || !bytes.Contains(stderr, []byte(tc.flag)) {
			t.Errorf("%v: exit %d, stdout %.80q, stderr %q; want a refusal naming %s before any run", tc.args, code, stdout, stderr, tc.flag)
		}
	}
}

// An instruction-level description runs to the same result whether the
// machine generates it (-desc) or replays trace files written from the same
// description (the trgen path): cycles, events, instructions and every
// rendered statistic.
func TestRunDescMatchesTraceFiles(t *testing.T) {
	const doc = `{"Level": "instruction", "Seed": 7, "Iterations": 2,
		"Phases": [{"Name": "relax", "Instructions": 3000, "CV": 0.2,
			"Comm": {"Pattern": "nearest", "Bytes": 256}}]}`
	dir := t.TempDir()
	descPath := filepath.Join(dir, "desc.json")
	if err := os.WriteFile(descPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, run := resolve(t, core.RunSpec{Preset: "t805-2x2", Desc: descPath})
	want, err := run(build(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	d, err := stochastic.ParseDesc([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	d.Nodes = build(t, cfg).Streams()
	traces, err := stochastic.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(traces))
	for i, tr := range traces {
		paths[i] = filepath.Join(dir, fmt.Sprintf("node%d.mmt", i))
		var buf bytes.Buffer
		if err := ops.WriteAll(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg, run = resolve(t, core.RunSpec{Preset: "t805-2x2", Traces: paths})
	got, err := run(build(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	if got.Cycles != want.Cycles || got.Events != want.Events || got.Instructions != want.Instructions {
		t.Errorf("trace files: %d cycles, %d events, %d instructions; -desc: %d, %d, %d",
			got.Cycles, got.Events, got.Instructions, want.Cycles, want.Events, want.Instructions)
	}
	render := func(r *machine.Result) string {
		var sb strings.Builder
		if err := stats.RenderSet(&sb, r.Stats); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Errorf("rendered stats differ\ntrace files:\n%s\n-desc:\n%s", g, w)
	}
	if want.Instructions == 0 {
		t.Error("the run executed no instructions")
	}
}

// More than one workload flag is refused, naming both, rather than running
// the first and ignoring the other.
func TestOneWorkloadFlag(t *testing.T) {
	dir := cliFixtures(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "jacobi", "-desc", "instr.json"}, "mermaid: give exactly one of app and desc\n"},
		{[]string{"-desc", "instr.json", "-traces", "itr/node0.mmt"}, "mermaid: give exactly one of desc and traces\n"},
		{[]string{"-app", "jacobi", "-traces", "itr/node0.mmt"}, "mermaid: give exactly one of app and traces\n"},
	} {
		code, stdout, stderr := runCLI(t, dir, append([]string{"-preset", "t805-2x2"}, tc.args...)...)
		if code != 1 || len(stdout) != 0 || string(stderr) != tc.want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// A retransmission schedule whose longest backoff would overflow the clock
// is refused before the run: with backoff 1000, attempt 16 waits
// 500·1000^15 cycles, which once wrapped negative and panicked the kernel
// ("time went backwards"). With backoff 3 the same run fits and ends in the
// deadlock the abandoned packets leave.
func TestRetransOverflowRefused(t *testing.T) {
	dir := t.TempDir()
	docs := map[string]string{
		"overflow.json": `{"noise":[{"a":-1,"b":-1,"drop":0.9}],"retrans":{"timeout":500,"backoff":1000,"maxRetries":16}}`,
		"fits.json":     `{"noise":[{"a":-1,"b":-1,"drop":0.9}],"retrans":{"timeout":500,"backoff":3,"maxRetries":16}}`,
		"desc.json":     `{"Level":"task","Iterations":2,"Phases":[{"Duration":100,"Comm":{"Pattern":"nearest","Bytes":64}}]}`,
	}
	for name, doc := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for faults, want := range map[string]string{
		"overflow.json": "mermaid: fault: retransmission timeout 500 with backoff 1000 waits more than 4611686018427387903 cycles before attempt 16\n",
		"fits.json":     "mermaid: machine: simulation deadlocked",
	} {
		code, stdout, stderr := runCLI(t, dir, "-preset", "t805-task-4x4", "-faults", faults, "-desc", "desc.json")
		if code != 1 || len(stdout) != 0 || !strings.HasPrefix(string(stderr), want) {
			t.Errorf("%s: exit %d, stdout %.80q, stderr %.300q; want exit 1 and %q", faults, code, stdout, stderr, want)
		}
	}
}
