package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// unvalidated is stated once in every output: the repository holds no
// hardware reference measurements, so the benchmark tracks exactness of the
// simulated statistics instead of an error figure.
const unvalidated = "model unvalidated against hardware; no error figure"

// A run sets up at least setupRepsMin times and reports the median, so one
// slow start does not decide setup_s. A set-up that takes only milliseconds
// is repeated more often — until setupBudget is spent or setupRepsMax is
// reached — because a short time is the noisier one.
const (
	setupRepsMin = 3
	setupRepsMax = 9
	setupBudget  = time.Second
)

// homeShare is the part of a run's operations a traced run spends on its
// home pass; the rest of its time goes to the layer probes.
const homeShare = 0.4

//go:embed expected/*.json
var expectedFS embed.FS

// golden is the committed digest of a workload's simulated statistics at
// the default seed.
type golden struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	Digest   string `json:"digest"`
}

func readGolden(workload string) (golden, error) {
	var g golden
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(data, &g)
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runReport is everything one invocation found; the results file holds it
// whole, the last line of standard output the part the contract names.
type runReport struct {
	Schema    int                    `json:"schema"`
	Statement string                 `json:"statement"`
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Quick     bool                   `json:"quick,omitempty"`
	Host      hostRecord             `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digest    string                 `json:"digest"`
	Golden    string                 `json:"golden"` // "match", "mismatch", "updated" or "not compared"
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runReport) put(name string, v float64, samples int) {
	d, ok := metricByName(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("metric %s is %v: its samples are missing", name, v))
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Samples: samples}
}

// absorb copies the pass's workload-specific measurements of the given
// classes into the report.
func (r *runReport) absorb(p *passResult, classes ...metricClass) {
	for name, v := range p.extra {
		d, ok := metricByName(name)
		if !ok {
			panic("benchmark: undeclared metric " + name)
		}
		for _, c := range classes {
			if d.Class == c {
				r.put(name, v, p.samples[name])
			}
		}
	}
}

func (r *runReport) addFailures(p *passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, f := range p.failures {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, f)
		}
	}
}

// options are the command-line settings of one workload run.
type options struct {
	workload       string
	seed           uint64
	seconds        float64
	trace          int
	quick          bool
	updateExpected bool
	resultPath     string // full report as JSON
	traceOut       string // spans as Chrome trace-event JSON
}

// runOne executes one workload, untraced or traced.
func runOne(o options) (*runReport, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	work, err := makeWorkDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	rc := runConfig{seed: o.seed, seconds: o.seconds, quick: o.quick, workDir: work, nproc: runtime.NumCPU()}
	rep := &runReport{
		Schema: 1, Statement: unvalidated, Workload: w.name, Trace: o.trace,
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Host: readHost(), Golden: "not compared", Metrics: map[string]metricValue{},
	}
	warnIfLoaded(rep.Host)

	if o.trace == 0 {
		err = runUntraced(w, rc, o, rep)
	} else {
		err = runTraced(w, rc, o, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Host.LoadEnd = loadAvg1()
	rep.Correct = rep.Failed == 0 && rep.Golden != "mismatch"
	return rep, nil
}

// benchDir is this package's directory relative to the working directory:
// the benchmark runs from the repository root. Scratch files go under it
// (the benchmark reads and writes nowhere outside the checkout), and
// -update-expected rewrites the goldens there. Tests point it elsewhere.
var benchDir = "benchmark"

func makeWorkDir() (string, error) {
	base := filepath.Join(benchDir, ".work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// checkGolden compares the pass's digest with the committed one. Goldens
// belong to the default seed and full-size runs; other runs rely on the
// conservation checks and the repeat of operation 0.
func checkGolden(w *workload, o options, p *passResult, rep *runReport) error {
	rep.Digest = p.digest()
	if o.seed != defaultSeed || o.quick {
		return nil
	}
	if o.updateExpected {
		g := golden{Workload: w.name, Seed: o.seed, Ops: goldenOps, Digest: rep.Digest}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		rep.Golden = "updated"
		return os.WriteFile(filepath.Join(benchDir, "expected", w.name+".json"), append(data, '\n'), 0o644)
	}
	g, err := readGolden(w.name)
	if err != nil {
		return fmt.Errorf("reading golden: %w (run with -update-expected to create it)", err)
	}
	if g.Digest == rep.Digest {
		rep.Golden = "match"
		return nil
	}
	rep.Golden = "mismatch"
	rep.Failed++
	rep.Failures = append(rep.Failures, fmt.Sprintf(
		"simulated statistics of the first %d operations hash to %s, expected %s", goldenOps, rep.Digest, g.Digest))
	return nil
}

// runUntraced measures the end-to-end metrics: nothing records spans.
func runUntraced(w *workload, rc runConfig, o options, rep *runReport) error {
	n := w.plannedOps(rc)
	run := w.newRunner(w, rc)
	defer run.close()

	// Set-up: input generation, server start, grid parse and one warm-up
	// operation, repeated so the median is reported.
	var setups []float64
	minReps, maxReps := setupRepsMin, setupRepsMax
	if rc.quick {
		minReps, maxReps = 1, 1
	}
	setupStart := time.Now()
	for r := 0; r < minReps || (r < maxReps && time.Since(setupStart) < setupBudget); r++ {
		start := time.Now()
		if err := run.prepare(n); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := run.warm(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	runtime.GC()
	before := readUsage()
	p := run.pass(n, nil)
	after := readUsage()

	if err := run.verify(p); err != nil {
		p.fail("verification: %v", err)
	}
	rep.addFailures(p)
	if err := checkGolden(w, o, p, rep); err != nil {
		return err
	}

	completed := p.attempted - p.failed
	if completed < 1 || len(p.opMS) == 0 {
		return fmt.Errorf("no operation completed: %v", rep.Failures)
	}
	rep.put("setup_s", median(setups), len(setups))
	rep.put("op_ms_p50", median(p.opMS), len(p.opMS))
	rep.put("ops_per_s", float64(completed)/p.wall.Seconds(), completed)
	rep.put("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(completed), completed)
	rep.put("peak_rss_mb", after.maxRSS, 1)
	if percentileAllowed(len(p.opMS), 95) {
		rep.put("op_ms_p95", percentile(p.opMS, 95), len(p.opMS))
	}
	rep.put("failed_share", float64(rep.Failed)/float64(rep.Attempted), rep.Attempted)
	rep.absorb(p, endToEndExtra)
	return nil
}

// runTraced measures the per-layer metrics. The workload's own pass is the
// home pass: every second operation records spans, so the two halves give
// bench.trace_overhead. Then every layer is measured — the request phases,
// the service and the pipeline by a pass of their own (small, unless it is
// the home pass), the rest by the layer probes.
func runTraced(w *workload, rc runConfig, o options, rep *runReport) error {
	tr := newTracer()
	// sized cuts an operation count down to the minimum in a quick run.
	sized := func(n int) int {
		if rc.quick {
			return min(n, goldenOps)
		}
		return n
	}
	homeOps := max(2*goldenOps, int(float64(w.plannedOps(rc))*homeShare+0.5))
	home, err := tracedPass(w, rc, sized(homeOps), tr, true)
	if err != nil {
		return err
	}
	rep.addFailures(home)
	if err := checkGolden(w, o, home, rep); err != nil {
		return err
	}
	if len(home.tracedMS) == 0 || len(home.untracedMS) == 0 {
		return fmt.Errorf("home pass completed too few operations: %v", rep.Failures)
	}
	rep.put("bench.trace_overhead", median(home.tracedMS)/median(home.untracedMS), len(home.tracedMS))

	// The request phases: from the home pass on the request workloads, from
	// the simulation behind a job or a grid point on the others.
	reqPass := home
	if _, ok := requestKinds[w.name]; !ok {
		kind := "service-direct"
		if w.name == "sweep-grid" {
			kind = "grid-direct"
		}
		direct := &workload{name: kind, newRunner: newRequestRunner}
		if reqPass, err = tracedPass(direct, rc, sized(6), tr, false); err != nil {
			return err
		}
		rep.addFailures(reqPass)
	}
	if err := requestLayerMetrics(reqPass, tr, rep); err != nil {
		return err
	}

	// The service and the pipeline.
	for _, side := range []struct {
		name string
		n    int
	}{{"service-mix", 12}, {"sweep-grid", 1}} {
		p := home
		if side.name != w.name {
			if p, err = tracedPass(workloadByName(side.name), rc, sized(side.n), tr, false); err != nil {
				return err
			}
			rep.addFailures(p)
		}
		rep.absorb(p, perLayer)
	}

	scale := 1.0
	if rc.quick {
		scale = 0.01
	}
	ps := newProbeSet(scale, rc.seed, rc.nproc)
	if err := ps.runAll(); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range ps.out {
		rep.put(name, v, ps.samples[name])
	}
	miss := rep.Metrics["server.miss_ms_p50"]
	rep.put("server.miss_over_direct", miss.Value/ps.directServiceMS, miss.Samples)

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for _, d := range metricsOf(perLayer) {
		if _, ok := rep.Metrics[d.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return nil
}

// tracedPass prepares a runner for n operations, warms it when it is the
// home pass, runs the pass and verifies it.
func tracedPass(w *workload, rc runConfig, n int, tr *tracer, home bool) (*passResult, error) {
	run := w.newRunner(w, rc)
	defer run.close()
	if err := run.prepare(n); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if home {
		if err := run.warm(); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	runtime.GC()
	p := run.pass(n, tr)
	if err := run.verify(p); err != nil {
		p.fail("%s verification: %v", w.name, err)
	}
	return p, nil
}

// requestLayerMetrics turns the spans of a request pass into the request
// phase metrics. Exact counts cover the whole pass; per-unit host costs cover the traced
// requests, whose spans say which request they belong to.
func requestLayerMetrics(p *passResult, tr *tracer, rep *runReport) error {
	durs := tr.durationsMS()
	reqMS := durs["request"]
	if len(reqMS) == 0 {
		return fmt.Errorf("request pass recorded no request span")
	}
	var phaseSum float64
	for _, ph := range requestPhases {
		if len(durs[ph]) != len(reqMS) {
			return fmt.Errorf("%d %s spans for %d requests", len(durs[ph]), ph, len(reqMS))
		}
		rep.put(ph+"_ms", median(durs[ph]), len(durs[ph]))
		phaseSum += sum(durs[ph])
	}
	rep.put("bench.phase_cover", phaseSum/sum(reqMS), len(reqMS))

	var cycles, events, packets, instrs, hops float64
	for _, o := range p.outcomes {
		cycles += float64(o.Cycles)
		events += float64(o.Events)
		packets += float64(o.Packets)
		instrs += float64(o.Instructions)
		hops += o.MeanHops
	}
	nOut := len(p.outcomes)
	rep.put("machine.target_cycles", cycles, nOut)
	rep.put("machine.events", events, nOut)
	rep.put("network.packets", packets, nOut)
	rep.put("cpu.instructions", instrs, nOut)
	rep.put("network.mean_hops", hops/float64(nOut), nOut)

	// Host cost per simulated unit, over the traced requests.
	var tEvents, tPacketHops, tProcCycles float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name != phaseRun || s.Req < 0 || s.Req >= nOut {
			continue
		}
		o := p.outcomes[s.Req]
		tEvents += float64(o.Events)
		tPacketHops += float64(o.Packets) * o.MeanHops
		tProcCycles += float64(o.Cycles) * float64(o.Processors)
	}
	tr.mu.Unlock()
	runNS := sum(durs[phaseRun]) * 1e6
	if tEvents == 0 || tPacketHops == 0 || tProcCycles == 0 {
		return fmt.Errorf("traced requests simulated no events, packets or cycles")
	}
	rep.put("machine.ns_per_event", runNS/tEvents, len(reqMS))
	rep.put("network.ns_per_packet_hop", runNS/tPacketHops, len(reqMS))
	rep.put("machine.slowdown_per_proc", sum(reqMS)*1e6/tProcCycles, len(reqMS))
	rep.absorb(p, perLayer)
	return nil
}
