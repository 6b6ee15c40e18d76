package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mermaid/internal/stats"
)

// Spec tunes one experiment execution: host parallelism, replication, and
// sweep-parameter overrides. The zero value runs sequentially with every
// parameter at its registry default. Execution parameters never influence
// simulated results — parallelism changes wall time only; sweep overrides
// change which design points are simulated, not how.
type Spec struct {
	// Workers is the number of simulations an experiment may run
	// concurrently (values below 1 mean sequential).
	Workers int
	// Sweep overrides named sweep parameters. Valid names and their
	// defaults are declared per experiment in Experiment.Sweep; an override
	// for an undeclared name is rejected by Experiment.Execute.
	Sweep map[string]string
}

// param returns the named sweep parameter: the override if present, the
// given default otherwise.
func (s Spec) param(name, def string) string {
	if v, ok := s.Sweep[name]; ok {
		return v
	}
	return def
}

// intsParam parses the named parameter as a comma-separated int list.
func (s Spec) intsParam(name, def string) ([]int, error) {
	return listParam(s, name, def, "an integer", strconv.Atoi)
}

// floatsParam parses the named parameter as a comma-separated float list.
func (s Spec) floatsParam(name, def string) ([]float64, error) {
	return listParam(s, name, def, "a number", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// listParam parses the named parameter as a comma-separated list of what
// parse reads.
func listParam[T any](s Spec, name, def, what string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(s.param(name, def), ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("sweep parameter %s: %q is not %s", name, p, what)
		}
		out = append(out, v)
	}
	return out, nil
}

// intParam parses the named parameter as a single integer.
func (s Spec) intParam(name, def string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s.param(name, def)))
	if err != nil {
		return 0, fmt.Errorf("sweep parameter %s: %q is not an integer", name, s.param(name, def))
	}
	return v, nil
}

// Keys is the assertable outcome of an experiment.
type Keys map[string]float64

// Artifact is a named JSON byproduct of an experiment run — a bottleneck
// report, a probe timeline — that the pipeline persists under the run's
// analysis/ directory. Render must be deterministic for deterministic
// experiments (virtual-time quantities only).
type Artifact struct {
	// Name is the file stem, e.g. "bottleneck" or "timeline".
	Name string
	// Render writes the artifact as JSON.
	Render func(io.Writer) error
}

// ResultSet is the named outcome of one experiment execution: the rendered
// table, the assertable key metrics, and any JSON artifacts.
type ResultSet struct {
	// Experiment is the producing experiment's registry name (filled by
	// Execute when the experiment function leaves it empty).
	Experiment string
	// Table is the rendered result table.
	Table *stats.Table
	// Keys are the key metrics tests and cross-run diffs assert against.
	Keys Keys
	// Artifacts are per-run JSON byproducts (bottleneck reports, probe
	// timelines).
	Artifacts []Artifact
}

// Experiment is a named, runnable reproduction experiment with the metadata
// the pipeline needs to enumerate and validate grids without hard-coded
// lists.
type Experiment struct {
	// Name is the CLI identifier (`mermaid -experiment <name>`).
	Name string
	// Title is a one-line description for listings.
	Title string
	// Deterministic marks experiments whose tables contain only simulated
	// quantities: their rendered output is byte-identical across runs,
	// hosts and worker counts. Non-deterministic tables include host wall
	// time or heap measurements.
	Deterministic bool
	// Units are the measurement units per result-table column (empty string
	// for unitless columns); they annotate the CSV schemas the pipeline
	// records in run manifests.
	Units []string
	// Sweep declares the experiment's sweep parameters and their defaults.
	// Only declared names may be overridden via Spec.Sweep.
	Sweep map[string]string
	// Run executes the experiment under the given spec.
	Run func(Spec) (*ResultSet, error)
}

// Execute validates the spec against the experiment's declared sweep
// parameters and runs it, stamping the experiment name on the result.
func (e Experiment) Execute(s Spec) (*ResultSet, error) {
	var unknown []string
	for name := range s.Sweep {
		if _, ok := e.Sweep[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown sweep parameter(s) %s (have: %s)",
			strings.Join(unknown, ", "), strings.Join(sweepNames(e), ", "))
	}
	rs, err := e.Run(s)
	if err != nil {
		return nil, err
	}
	if rs.Experiment == "" {
		rs.Experiment = e.Name
	}
	return rs, nil
}

// sweepNames lists an experiment's declared sweep parameters, sorted; "none"
// when it has no parameters.
func sweepNames(e Experiment) []string {
	if len(e.Sweep) == 0 {
		return []string{"none"}
	}
	names := make([]string, 0, len(e.Sweep))
	for n := range e.Sweep {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default sweep-parameter values, shared between the registry metadata and
// the experiment implementations so the two cannot drift.
const (
	defMemoryNodes     = "4,16,64"
	defCacheSizesKiB   = "2,4,8,16,32"
	defCacheAssocs     = "1,2"
	defNetworkBytes    = "2048"
	defRoutingBytes    = "2048"
	defRoutingRounds   = "6"
	defImbalanceCVs    = "0,0.2,0.5"
	defScalingCells    = "1024"
	defScalingIters    = "6"
	defFaultCells      = "512"
	defFaultIters      = "20"
	defValidityBytes   = "512"
	defCalibStrideByte = "64"
)

// All returns every experiment in canonical order (the order `-experiment
// all` runs and EXPERIMENTS.md documents them).
func All() []Experiment {
	return []Experiment{
		{Name: "table1", Title: "Table 1 operation costs through the detailed simulator",
			Deterministic: true, Units: []string{"", "", "cyc"}, Run: table1},
		{Name: "slowdown", Title: "detailed-mode simulation slowdown (§6)",
			Units: []string{"", "", "cyc", "ms", "cyc/s", "", ""}, Run: detailedSlowdown},
		{Name: "slowdown-task", Title: "task-level simulation slowdown (§6)",
			Units: []string{"", "", "cyc", "ms", "cyc/s", "", ""}, Run: taskLevelSlowdown},
		{Name: "memory", Title: "host memory per simulated node (§6)",
			Units: []string{"", "KiB", "KiB"},
			Sweep: map[string]string{"nodes": defMemoryNodes}, Run: memoryScaling},
		{Name: "hybrid", Title: "detailed vs derived task-level trace agreement (Fig. 2)",
			Units: []string{"", "cyc", "ms", ""}, Run: hybridAgreement},
		{Name: "validity", Title: "execution-driven multiprocessor trace validity (§3.1)",
			Deterministic: true, Units: []string{"", ""},
			Sweep: map[string]string{"bytes": defValidityBytes}, Run: traceValidity},
		{Name: "cache-sweep", Title: "L1 size/associativity design study (§2, §4.1)",
			Deterministic: true, Units: []string{"", "", "", "cyc", "cyc/instr"},
			Sweep: map[string]string{"sizes": defCacheSizesKiB, "assocs": defCacheAssocs},
			Run:   cacheSweep},
		{Name: "network-sweep", Title: "topology x switching design study (§4.2)",
			Deterministic: true, Units: []string{"", "", "cyc", "cyc", "", ""},
			Sweep: map[string]string{"bytes": defNetworkBytes}, Run: networkSweep},
		{Name: "coherence", Title: "SMP scaling and snoopy vs directory coherence (§4.3)",
			Deterministic: true, Units: []string{"", "", "", "cyc", "", ""}, Run: coherenceStudy},
		{Name: "interconnect", Title: "node bus vs banked crossbar ablation (§4.1)",
			Deterministic: true, Units: []string{"", "", "cyc", ""}, Run: nodeInterconnectStudy},
		{Name: "calibration", Title: "lat-mem-rd microbenchmark recovers the hierarchy (§3)",
			Deterministic: true, Units: []string{"", "cyc", ""},
			Sweep: map[string]string{"stride": defCalibStrideByte}, Run: calibration},
		{Name: "routing", Title: "minimal vs Valiant vs adaptive routing (§4.2)",
			Deterministic: true, Units: []string{"", "cyc", "hops", "cyc", ""},
			Sweep: map[string]string{"bytes": defRoutingBytes, "rounds": defRoutingRounds},
			Run:   routingStudy},
		{Name: "imbalance", Title: "load imbalance vs completion time (§3.2)",
			Deterministic: true, Units: []string{"", "cyc", "x"},
			Sweep: map[string]string{"cv": defImbalanceCVs}, Run: imbalanceStudy},
		{Name: "scaling", Title: "strong scaling of a fixed-size problem (§1)",
			Deterministic: true, Units: []string{"", "cyc", "x", ""},
			Sweep: map[string]string{"cells": defScalingCells, "iters": defScalingIters},
			Run:   scalingStudy},
		{Name: "stochastic-vs-annotated", Title: "stochastic vs annotated workload paths (§3, Fig. 4)",
			Deterministic: true, Units: []string{"", "cyc", "", "", "B"}, Run: stochasticVsAnnotated},
		{Name: "fault-resilience", Title: "packet loss and link failure under retransmission",
			Deterministic: true, Units: []string{"", "cyc", "", "", "", ""},
			Sweep: map[string]string{"cells": defFaultCells, "iters": defFaultIters},
			Run:   faultResilience},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the canonical experiment name list.
func Names() []string {
	exps := All()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// Describe renders the registry metadata as a table — the machine-derived
// source of the experiment listings in EXPERIMENTS.md and `-experiment
// list`.
func Describe() *stats.Table {
	tb := stats.NewTable("name", "deterministic", "sweep parameters", "description")
	for _, e := range All() {
		det := "no"
		if e.Deterministic {
			det = "yes"
		}
		var sweeps []string
		for _, n := range sweepNames(e) {
			if n == "none" {
				sweeps = []string{"-"}
				break
			}
			sweeps = append(sweeps, n+"="+e.Sweep[n])
		}
		tb.Row(e.Name, det, strings.Join(sweeps, " "), e.Title)
	}
	return tb
}
