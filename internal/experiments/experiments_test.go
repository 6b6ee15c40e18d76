package experiments

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/stats"
)

// render returns an experiment table as the exact bytes the CLI prints.
func render(t *testing.T, tb *stats.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// renderArtifacts concatenates a result set's artifacts as bytes, for
// byte-identity comparisons.
func renderArtifacts(t *testing.T, rs *ResultSet) string {
	t.Helper()
	var sb strings.Builder
	for _, a := range rs.Artifacts {
		sb.WriteString(a.Name + "\n")
		if err := a.Render(&sb); err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
	}
	return sb.String()
}

// TestDeterminismUnderParallelism is the farm's core guarantee: every
// deterministic experiment produces byte-identical tables, identical key
// maps, and byte-identical artifacts whether its sweep points run
// sequentially or on 8 concurrent workers. Parallelism changes wall time
// only, never results.
func TestDeterminismUnderParallelism(t *testing.T) {
	for _, e := range All() {
		if !e.Deterministic {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			seqRS, err := e.Execute(Spec{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parRS, err := e.Execute(Spec{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			seq, par := render(t, seqRS.Table), render(t, parRS.Table)
			if seq != par {
				t.Errorf("tables differ between -parallel 1 and 8:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
			}
			if !reflect.DeepEqual(seqRS.Keys, parRS.Keys) {
				t.Errorf("keys differ: %v vs %v", seqRS.Keys, parRS.Keys)
			}
			if a, b := renderArtifacts(t, seqRS), renderArtifacts(t, parRS); a != b {
				t.Error("artifacts differ between -parallel 1 and 8")
			}
			if seqRS.Experiment != e.Name {
				t.Errorf("result set not stamped: %q, want %q", seqRS.Experiment, e.Name)
			}
		})
	}
}

// TestExecuteRejectsUnknownSweep is the registry's validation contract: a
// sweep override must name a declared parameter.
func TestExecuteRejectsUnknownSweep(t *testing.T) {
	e, ok := ByName("cache-sweep")
	if !ok {
		t.Fatal("cache-sweep not registered")
	}
	_, err := e.Execute(Spec{Sweep: map[string]string{"bogus": "1"}})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown sweep parameter accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "sizes") {
		t.Errorf("error should list valid parameters: %v", err)
	}
	// An experiment with no parameters rejects any override.
	e, _ = ByName("table1")
	if _, err := e.Execute(Spec{Sweep: map[string]string{"x": "1"}}); err == nil {
		t.Error("table1 accepted a sweep override despite declaring none")
	}
}

// TestRegistryMetadata keeps the registry self-consistent: units match the
// produced table's column count, default sweeps parse, and Describe lists
// every experiment.
func TestRegistryMetadata(t *testing.T) {
	desc := Describe()
	if got, want := len(tableRows(t, desc)), len(All()); got != want {
		t.Errorf("Describe lists %d experiments, registry has %d", got, want)
	}
	for _, e := range All() {
		if e.Title == "" {
			t.Errorf("%s: no title", e.Name)
		}
		for name, def := range e.Sweep {
			if def == "" {
				t.Errorf("%s: sweep parameter %s has no default", e.Name, name)
			}
		}
	}
	// Spot-check units length against an actually produced table (cheap
	// experiments only).
	for _, name := range []string{"validity", "imbalance"} {
		e, _ := ByName(name)
		rs, err := e.Execute(Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(e.Units), len(rs.Table.Schema()); got != want {
			t.Errorf("%s: %d units for %d columns", name, got, want)
		}
	}
}

// TestKeyWrittenTwice: two sweep points whose key names format alike are an
// error naming the key, not one point's value standing for both.
func TestKeyWrittenTwice(t *testing.T) {
	e, _ := ByName("imbalance")
	_, err := e.Execute(Spec{Sweep: map[string]string{"cv": "0.2,0.25"}})
	if err == nil || !strings.Contains(err.Error(), "cycles_cv0.2") {
		t.Fatalf("cv=0.2,0.25: err = %v, want one naming the key cycles_cv0.2", err)
	}
}

func TestTable1(t *testing.T) {
	rs, err := table1(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	var sb strings.Builder
	if err := rs.Table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	// Every Table 1 kind must have a measured cost.
	for k := ops.Load; k <= ops.Compute; k++ {
		if _, ok := keys[k.String()]; !ok {
			t.Errorf("no measurement for %s", k)
		}
	}
	// Sanity on relative costs: divide slower than add, loads slower than
	// register arithmetic (they miss a cold cache), compute = its duration.
	if keys["div"] <= keys["add"] {
		t.Errorf("div (%v) should cost more than add (%v)", keys["div"], keys["add"])
	}
	if keys["load"] <= keys["add"] {
		t.Errorf("cold load (%v) should cost more than add (%v)", keys["load"], keys["add"])
	}
	if keys["compute"] != 5000 {
		t.Errorf("compute = %v, want 5000", keys["compute"])
	}
	// Synchronous send costs at least the asynchronous one (rendezvous ack).
	if keys["send"] < keys["asend"] {
		t.Errorf("sync send (%v) cheaper than async (%v)", keys["send"], keys["asend"])
	}
}

func TestDetailedVsTaskSlowdownShape(t *testing.T) {
	// The paper's central performance claim: the task-level mode is orders
	// of magnitude faster (per simulated cycle) than the detailed mode.
	drs, err := detailedSlowdown(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	trs, err := taskLevelSlowdown(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	det := drs.Keys["t805-4x4/cycles_per_sec"]
	task := trs.Keys["t805-4x4-compute-heavy/cycles_per_sec"]
	if det <= 0 || task <= 0 {
		t.Fatalf("rates: detailed=%v task=%v", det, task)
	}
	if task < 20*det {
		t.Errorf("task-level only %.1fx faster than detailed; paper shape wants >> 20x", task/det)
	}
}

func TestMemoryScaling(t *testing.T) {
	rs, err := memoryScaling(Spec{Sweep: map[string]string{"nodes": "4,16"}})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	// Host cost of a cache must not scale with simulated capacity
	// (tags-only, §6): 4 MiB vs 32 KiB is 128x capacity, same metadata per
	// line count ratio.
	if r := keys["cache_host_ratio"]; r > 200 {
		t.Errorf("cache host ratio = %v", r)
	}
	if keys["kib_per_node_16"] <= 0 {
		// Heap accounting can be noisy but must not be negative after GC.
		t.Logf("per-node heap not measurable: %v KiB", keys["kib_per_node_16"])
	}
}

func TestHybridAgreement(t *testing.T) {
	rs, err := hybridAgreement(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	r := keys["ratio"]
	if r < 0.95 || r > 1.05 {
		t.Errorf("task-level replay disagrees with detailed run: ratio %v", r)
	}
	// And the task-level run must be much cheaper in kernel events.
	if keys["task_events"] >= keys["detailed_events"]/10 {
		t.Errorf("task events %v vs detailed %v: expected >= 10x reduction",
			keys["task_events"], keys["detailed_events"])
	}
}

func TestTraceValidity(t *testing.T) {
	rs, err := traceValidity(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Keys["orders_differ"] != 1 {
		var sb strings.Builder
		rs.Table.Render(&sb)
		t.Errorf("traces identical across architectures:\n%s", sb.String())
	}
	// The slow-link run must attach a non-empty timeline artifact.
	if len(rs.Artifacts) != 1 || rs.Artifacts[0].Name != "timeline" {
		t.Fatalf("artifacts = %v, want one timeline", rs.Artifacts)
	}
	var sb strings.Builder
	if err := rs.Artifacts[0].Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("timeline artifact is not trace-event JSON: %.80s", sb.String())
	}
}

func TestCacheSweep(t *testing.T) {
	rs, err := cacheSweep(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	// Hit ratio must grow with size up to the 16 KiB working set and
	// saturate beyond it; cycles must shrink correspondingly.
	if !(keys["hit_2k_a8"] < keys["hit_8k_a8"] && keys["hit_8k_a8"] < keys["hit_32k_a8"]) {
		t.Errorf("hit ratios not monotone: 2K=%v 8K=%v 32K=%v",
			keys["hit_2k_a8"], keys["hit_8k_a8"], keys["hit_32k_a8"])
	}
	if keys["cycles_2k_a8"] <= keys["cycles_32k_a8"] {
		t.Errorf("bigger cache not faster: %v vs %v", keys["cycles_2k_a8"], keys["cycles_32k_a8"])
	}
	if keys["hit_32k_a8"] < 0.9 {
		t.Errorf("32K cache over 16K working set should hit > 0.9, got %v", keys["hit_32k_a8"])
	}
}

func TestCacheSweepOverride(t *testing.T) {
	// A narrowed sweep must produce exactly its points.
	rs, err := cacheSweep(Spec{Sweep: map[string]string{"sizes": "4,16", "assocs": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tableRows(t, rs.Table)); got != 3 {
		t.Errorf("override produced %d rows, want 3", got)
	}
	if _, ok := rs.Keys["hit_4k_a8"]; !ok {
		t.Error("missing swept point 4k/a8")
	}
	if _, ok := rs.Keys["hit_16k_a2"]; !ok {
		t.Error("missing swept point 16k/a2")
	}
}

func TestNetworkSweep(t *testing.T) {
	rs, err := networkSweep(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	// Richer topologies deliver lower latency under uniform traffic.
	if keys["ring/wh/latency"] <= keys["hypercube/wh/latency"] {
		t.Errorf("ring latency %v should exceed hypercube %v",
			keys["ring/wh/latency"], keys["hypercube/wh/latency"])
	}
	// Cut-through beats store-and-forward on multi-hop topologies.
	if keys["mesh/saf/latency"] <= keys["mesh/wh/latency"] {
		t.Errorf("SAF latency %v should exceed wormhole %v on the mesh",
			keys["mesh/saf/latency"], keys["mesh/wh/latency"])
	}
	// Torus no slower than mesh (wrap links can only help).
	if keys["torus/wh/latency"] > keys["mesh/wh/latency"]*1.1 {
		t.Errorf("torus latency %v should not exceed mesh %v",
			keys["torus/wh/latency"], keys["mesh/wh/latency"])
	}
}

func TestCoherenceStudy(t *testing.T) {
	rs, err := coherenceStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	if keys["inval_smp1"] != 0 {
		t.Errorf("uniprocessor had %v invalidations", keys["inval_smp1"])
	}
	if keys["inval_smp4"] <= keys["inval_smp2"] {
		t.Errorf("invalidations should grow with CPUs: 2=%v 4=%v",
			keys["inval_smp2"], keys["inval_smp4"])
	}
	if keys["inval_dir8"] <= 0 {
		t.Errorf("directory scheme produced no invalidations")
	}
}

func TestStochasticVsAnnotated(t *testing.T) {
	rs, err := stochasticVsAnnotated(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	r := keys["cycle_ratio"]
	// "Modest accuracy": within a factor of two either way.
	if r < 0.5 || r > 2 {
		t.Errorf("stochastic/annotated cycle ratio = %v, want within [0.5, 2]", r)
	}
	if keys["stochastic_msgs"] == 0 || keys["annotated_msgs"] == 0 {
		t.Error("one of the paths produced no communication")
	}
}

func TestNodeInterconnectStudy(t *testing.T) {
	rs, err := nodeInterconnectStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Keys["crossbar/cycles"] >= rs.Keys["bus/cycles"] {
		t.Errorf("crossbar (%v) should beat the bus (%v) on bank-disjoint streams",
			rs.Keys["crossbar/cycles"], rs.Keys["bus/cycles"])
	}
}

func TestCalibrationRecoversHierarchy(t *testing.T) {
	rs, err := calibration(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	l1 := keys["lat_4k"]
	l2 := keys["lat_64k"]
	mem := keys["lat_2048k"]
	// The configured PPC601 node: L1 hit 1 cycle; L2 path ~8; memory ~41.
	if l1 < 0.9 || l1 > 1.5 {
		t.Errorf("L1-resident latency = %v, want ~1", l1)
	}
	if l2 < 6 || l2 > 10 {
		t.Errorf("L2-resident latency = %v, want ~8", l2)
	}
	if mem < 30 || mem > 50 {
		t.Errorf("memory latency = %v, want ~41", mem)
	}
	// Staircase shape: strictly increasing across levels, flat within.
	if !(l1 < l2 && l2 < mem) {
		t.Errorf("latency staircase broken: %v / %v / %v", l1, l2, mem)
	}
	if d := keys["lat_16k"] - l1; d > 0.5 {
		t.Errorf("L1 plateau not flat: 4K=%v 16K=%v", l1, keys["lat_16k"])
	}
}

func TestRoutingStudy(t *testing.T) {
	rs, err := routingStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	if keys["valiant/hops"] <= keys["minimal/hops"] {
		t.Errorf("valiant hops %v should exceed minimal %v",
			keys["valiant/hops"], keys["minimal/hops"])
	}
	if keys["valiant/maxutil"] >= keys["minimal/maxutil"] {
		t.Errorf("valiant max link utilisation %v should undercut minimal %v on adversarial traffic",
			keys["valiant/maxutil"], keys["minimal/maxutil"])
	}
}

func TestImbalanceStudy(t *testing.T) {
	rs, err := imbalanceStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	if !(keys["cycles_cv0.0"] < keys["cycles_cv0.2"] && keys["cycles_cv0.2"] < keys["cycles_cv0.5"]) {
		t.Errorf("completion not monotone in imbalance: %v / %v / %v",
			keys["cycles_cv0.0"], keys["cycles_cv0.2"], keys["cycles_cv0.5"])
	}
}

func TestRoutingStudyAdaptive(t *testing.T) {
	rs, err := routingStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	// Adaptive stays minimal in hops but must not be slower than the
	// deterministic dimension-order router on adversarial traffic.
	if keys["adaptive/hops"] != keys["minimal/hops"] {
		t.Errorf("adaptive hops %v, want minimal %v", keys["adaptive/hops"], keys["minimal/hops"])
	}
	if keys["adaptive/cycles"] > keys["minimal/cycles"] {
		t.Errorf("adaptive (%v cycles) slower than minimal (%v)",
			keys["adaptive/cycles"], keys["minimal/cycles"])
	}
}

func TestScalingStudy(t *testing.T) {
	rs, err := scalingStudy(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := rs.Keys
	// More nodes, less time; and speedup grows but sublinearly.
	if !(keys["cycles_2"] > keys["cycles_4"] && keys["cycles_4"] > keys["cycles_8"] &&
		keys["cycles_8"] > keys["cycles_16"]) {
		t.Errorf("cycles not decreasing with nodes: %v %v %v %v",
			keys["cycles_2"], keys["cycles_4"], keys["cycles_8"], keys["cycles_16"])
	}
	if keys["speedup_16"] <= keys["speedup_4"] {
		t.Errorf("speedup not growing: 4=%v 16=%v", keys["speedup_4"], keys["speedup_16"])
	}
	if keys["speedup_16"] >= 16 {
		t.Errorf("superlinear speedup %v suspicious for fixed problem + halo overhead", keys["speedup_16"])
	}
	// The largest machine must attach its bottleneck report.
	if len(rs.Artifacts) != 1 || rs.Artifacts[0].Name != "bottleneck" {
		t.Fatalf("artifacts = %v, want one bottleneck report", rs.Artifacts)
	}
}

// tableRows reads a table's data rows back from its CSV.
func tableRows(t *testing.T, tb *stats.Table) [][]string {
	t.Helper()
	var b bytes.Buffer
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records[1:]
}
