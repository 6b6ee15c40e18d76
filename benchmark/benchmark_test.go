package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(vs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := median(vs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty samples must give NaN, not a number that looks measured")
	}
	// A percentile is reported only with ten samples beyond it.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 95, true}, {199, 95, false}, {100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false}} {
		if got := percentileAllowed(tc.n, tc.p); got != tc.want {
			t.Errorf("percentileAllowed(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	// The quartiles are Python's statistics.quantiles(values, n=4): the
	// acceptance driver computes its spreads with that function.
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

func TestSpanSelfTimeIsDurationMinusChildCover(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{Name: "parent", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(30), Parent: 0},
		{Name: "b", Start: at(20), End: at(50), Parent: 0}, // overlaps a: counted once
		{Name: "c", Start: at(60), End: at(70), Parent: 0},
		{Name: "grandchild", Start: at(12), End: at(18), Parent: 1}, // covers a, not parent
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 14, 30, 10, 6}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], w*time.Millisecond)
		}
	}

	var nilTracer *tracer
	id := nilTracer.begin("x", -1, 0, 0)
	nilTracer.end(id)
	if len(nilTracer.durationsMS()) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7, 0)
	tr.end(tr.begin(phaseRun, root, 7, 0))
	tr.end(root)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span export is not JSON: %v", err)
	}
	if !strings.Contains(buf.String(), "machine.run #7") {
		t.Errorf("span export lacks the request id: %s", buf.String())
	}
}

func TestDigestIsStableAndSensitive(t *testing.T) {
	o := outcome{Cycles: 1000, Events: 20, Instructions: 5, Processors: 4, Messages: 3, Packets: 6,
		Bytes: 4096, MeanHops: 1.5, Sends: 3, Recvs: 3, CacheHits: 10, CacheMisses: 2}
	digestOf := func(os ...outcome) string { return (&passResult{outcomes: os}).digest() }
	a := digestOf(o, o)
	if b := digestOf(o, o); a != b {
		t.Errorf("equal outcomes hash differently: %s, %s", a, b)
	}
	// Pinned: a change of the encoding silently invalidates every golden.
	const pinned = "a46064fe4f3bbcfe00375bff1bedbc850b4debcb9fcffeb6ee8fecc989fd2bce"
	if a != pinned {
		t.Errorf("digest encoding changed: got %s, pinned %s (rewrite the goldens with -update-expected and this constant together)", a, pinned)
	}
	o2 := o
	o2.CacheMisses++
	if digestOf(o, o2) == a {
		t.Error("a changed cache-miss count did not change the digest")
	}
	if digestOf(o, o, o2) != a {
		t.Errorf("the digest must cover the first %d operations only", goldenOps)
	}
}

func TestSeedDerivation(t *testing.T) {
	if deriveSeed(1, "w", 0, "machine") == deriveSeed(1, "w", 1, "machine") ||
		deriveSeed(1, "w", 0, "machine") == deriveSeed(2, "w", 0, "machine") ||
		deriveSeed(1, "w", 0, "machine") == deriveSeed(1, "w", 0, "desc") {
		t.Error("derived seeds collide")
	}
	a, err := makeRequest("task-mesh64", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeRequest("task-mesh64", 5, 3)
	if !bytes.Equal(a.config, b.config) || a.desc.Seed != b.desc.Seed {
		t.Error("the same seed must give the same inputs")
	}
	c, _ := makeRequest("task-mesh64", 5, 4)
	if bytes.Equal(a.config, c.config) {
		t.Error("two requests of one run are byte-identical")
	}
}

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricTable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if !unitPattern.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitPattern)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		if d.Class == perLayer && d.Moves == "" {
			t.Errorf("%s: a layer metric must say which end-to-end figure it should move", d.Name)
		}
	}
	if d, ok := metricByName("setup_s"); !ok || d.Class != endToEnd || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderBenchmarkFile(benchmarkRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in this package; run `go run ./benchmark -write-benchmark-json`")
	}
	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(got))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

func TestGoldensPresent(t *testing.T) {
	for _, w := range workloads {
		g, err := readGolden(w.name)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if g.Seed != defaultSeed || g.Ops != goldenOps || len(g.Digest) != 64 {
			t.Errorf("%s: golden %+v is not a default-seed digest over %d operations", w.name, g, goldenOps)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Class: endToEnd, Bound: 0.10}
	steady := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.002*float64(i%3-1))
		}
		return out
	}
	if v := judge(lower, steady(100), steady(105)); v != same {
		t.Errorf("5%% worse inside a 10%% bound = %s, want same", v)
	}
	if v := judge(lower, steady(100), steady(115)); v != regression {
		t.Errorf("15%% worse beyond a 10%% bound = %s, want regression", v)
	}
	if v := judge(lower, steady(100), steady(80)); v != gain {
		t.Errorf("20%% better on ten paired wins = %s, want gain", v)
	}
	if v := judge(lower, steady(100)[:3], steady(80)[:3]); v != same {
		t.Errorf("three pairs cannot carry a gain, got %s", v)
	}
	noisy := []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}
	if v := judge(lower, noisy, noisy); v != unresolved {
		t.Errorf("a spread wider than the bound = %s, want unresolved", v)
	}
	higher := metricDef{Name: "y", Better: "higher", Class: endToEnd, Bound: 0.10}
	if v := judge(higher, steady(100), steady(85)); v != regression {
		t.Errorf("throughput 15%% down = %s, want regression", v)
	}
	exact := metricDef{Name: "z", Better: "lower", Class: perLayer, Exact: true}
	if v := judge(exact, []float64{5, 5}, []float64{5, 6}); v != moved {
		t.Errorf("an exact count that differs = %s, want moved", v)
	}
	zero := metricDef{Name: "f", Better: "lower", Class: endToEndExtra, Bound: 0}
	if v := judge(zero, []float64{0, 0}, []float64{0, 0.01}); v != regression {
		t.Errorf("a failed share above zero = %s, want regression", v)
	}
}

// TestQuickPass drives every workload and every probe path at toy size:
// two operations per workload, probes at 1 %. It asserts no timing, only
// that every declared metric is emitted, nothing undeclared is, and every
// simulated outcome checks out.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	benchDir = t.TempDir()
	defer func() { benchDir = "benchmark" }()

	traced := map[string]bool{"task-mesh64": true, "service-mix": true, "sweep-grid": true}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			if trace == 1 && !traced[w.name] {
				continue // one traced run per runner family covers every path
			}
			rep, err := runOne(options{workload: w.name, seed: 7, seconds: 1, trace: trace, quick: true})
			if err != nil {
				t.Errorf("%s trace %d: %v", w.name, trace, err)
				continue
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s trace %d: failed %d of %d: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			line, err := contractOf(rep)
			if err != nil {
				t.Errorf("%s trace %d: %v", w.name, trace, err)
				continue
			}
			class := endToEnd
			if trace == 1 {
				class = perLayer
			}
			if len(line.Metrics) != len(metricsOf(class)) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.name, trace, len(line.Metrics), len(metricsOf(class)))
			}
			for name, m := range line.Metrics {
				d, ok := metricByName(name)
				if !ok || d.Class != class || d.Unit != m.Unit {
					t.Errorf("%s trace %d: emitted %s (%s) is not declared so", w.name, trace, name, m.Unit)
				}
				if class == endToEnd && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; they are never zero", w.name, name, m.Value)
				}
			}
			if line.Attempted < 1 {
				t.Errorf("%s trace %d: attempted %d", w.name, trace, line.Attempted)
			}
		}
	}
}
