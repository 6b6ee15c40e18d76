package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// metricClass says where a metric is reported and how it is judged.
type metricClass int

const (
	// endToEnd metrics are what a user of the system sees. They are
	// measured untraced on every workload, are never zero, and carry the
	// bound by which they may worsen; BENCHMARK.json lists them.
	endToEnd metricClass = iota
	// endToEndExtra metrics are end-to-end figures that exist on some
	// workloads only (the paper's slowdown needs simulated cycles; hit and
	// miss latency need a cache). The acceptance driver wants every
	// end-to-end metric on every workload, so these are kept out of
	// BENCHMARK.json; the suite's result files and `compare` carry them with
	// their bounds.
	endToEndExtra
	// perLayer metrics belong to one layer, are taken in the traced run and
	// have no bound: they say where a change landed, not whether it may.
	perLayer
)

// metricDef declares one metric: its unit, its direction, and — for
// end-to-end metrics — its regression bound as a share of the parent's
// median.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Class  metricClass
	Bound  float64
	// Exact marks simulated quantities: for a fixed seed they repeat
	// exactly and must not move under a performance change.
	Exact bool
	// Moves names the end-to-end figure the layer metric should move and
	// on which workload — written down before measuring.
	Moves string
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The bounds are the widest the acceptance contract allows. The reference
// host is a shared 2-core virtual machine whose speed wanders by the hour:
// over five sets of ten runs the inter-quartile spread of the timing
// metrics was 2–7 % in quiet hours and 10–30 % in busy ones, the same
// binary and inputs (README.md, "Observed spreads"). A tighter bound would
// reject the benchmark itself on a busy hour; `compare` resolves smaller
// changes from paired runs.
var metricDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Class: endToEnd, Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Class: endToEnd, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Class: endToEnd, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Class: endToEnd, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Class: endToEnd, Bound: 0.25},

	{Name: "slowdown_per_proc", Unit: "ns/cycle", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "hit_ms_p50", Unit: "ms", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "hit_ms_p95", Unit: "ms", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "miss_ms_p50", Unit: "ms", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "miss_ms_p95", Unit: "ms", Better: "lower", Class: endToEndExtra, Bound: 0.25},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Class: endToEndExtra, Bound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Class: endToEndExtra, Bound: 0},

	// One request, phase by phase (the workload's own request on the four
	// request workloads, the simulation behind a job or a grid point on the
	// others).
	{Name: "machine.parse_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 of the request workloads; invisible share everywhere"},
	{Name: "machine.build_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on task-torus16k (visible share); not on task-mesh64"},
	{Name: "stochastic.generate_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on detailed-t805 and task-torus16k"},
	{Name: "machine.run_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 and slowdown_per_proc of the same workload"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on task-torus16k (16k-node metric tree)"},
	{Name: "machine.alloc_mb_per_request", Unit: "MB", Better: "lower", Class: perLayer, Moves: "peak_rss_mb of the same workload; ops_per_s on sweep-grid (GC contention)"},
	{Name: "machine.allocs_per_request", Unit: "count", Better: "lower", Class: perLayer, Moves: "cpu_ms_per_op of the same workload"},
	{Name: "machine.target_cycles", Unit: "count", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: simulated, must not move"},
	{Name: "machine.events", Unit: "count", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: simulated, must not move"},
	{Name: "network.packets", Unit: "count", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: simulated, must not move"},
	{Name: "network.mean_hops", Unit: "hops", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: simulated, must not move"},
	{Name: "cpu.instructions", Unit: "count", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: simulated, must not move"},
	{Name: "machine.ns_per_event", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc of the same workload"},
	{Name: "network.ns_per_packet_hop", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on task-mesh64 (process), task-torus16k (compact), task-sharded (sharded); no change on detailed-t805"},
	{Name: "machine.slowdown_per_proc", Unit: "ns/cycle", Better: "lower", Class: perLayer, Moves: "the traced-pass reading of slowdown_per_proc"},
	{Name: "bench.phase_cover", Unit: "ratio", Better: "higher", Class: perLayer, Moves: "nothing: share of a request's wall time the five phase spans cover"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", Class: perLayer, Moves: "nothing: bounds how far the per-layer numbers can be trusted"},

	{Name: "pearl.ns_per_event", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on task-mesh64 and task-torus16k"},
	{Name: "pearl.ns_per_handoff", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805"},
	{Name: "pearl.ns_per_mailbox_msg", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805 and task-mesh64"},
	{Name: "pearl.allocs_per_mailbox_msg", Unit: "count", Better: "lower", Class: perLayer, Moves: "peak_rss_mb and cpu_ms_per_op on detailed-t805"},
	{Name: "pearl.shard_speedup", Unit: "ratio", Better: "higher", Class: perLayer, Moves: "slowdown_per_proc on task-sharded"},
	{Name: "pearl.shard_efficiency", Unit: "ratio", Better: "higher", Class: perLayer, Moves: "slowdown_per_proc on task-sharded"},

	{Name: "trace.ns_per_op", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805"},
	{Name: "trace.ns_per_thread_op", Unit: "ns", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid (annotated programs)"},
	{Name: "stochastic.ns_per_op", Unit: "ns", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on detailed-t805"},
	{Name: "annotate.ns_per_op", Unit: "ns", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid"},

	{Name: "cpu.ns_per_instr", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805, ops_per_s on sweep-grid; no change on task-*"},
	{Name: "cache.ns_per_hit", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805, ops_per_s on sweep-grid; no change on task-*"},
	{Name: "cache.ns_per_miss", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805, ops_per_s on sweep-grid; no change on task-*"},
	{Name: "cache.ns_per_coherent_write", Unit: "ns", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid (coherence, interconnect); no change on task-*"},
	{Name: "bus.ns_per_transaction", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805; no change on task-*"},
	{Name: "bus.ns_per_contended_transaction", Unit: "ns", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid (SMP points); no change on task-*"},
	{Name: "memory.ns_per_access", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on detailed-t805; no change on task-*"},

	{Name: "topology.ns_per_hop_mesh", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on task-mesh64"},
	{Name: "topology.ns_per_hop_torus3d", Unit: "ns", Better: "lower", Class: perLayer, Moves: "slowdown_per_proc on task-torus16k"},
	{Name: "router.table_build_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid (fault-resilience runs)"},

	{Name: "probe.timeline_on_ratio", Unit: "ratio", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix; no change on the request workloads (both off)"},
	{Name: "analysis.on_ratio", Unit: "ratio", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix; no change on the request workloads (both off)"},
	{Name: "probe.timeline_write_mb_per_s", Unit: "MB/s", Better: "higher", Class: perLayer, Moves: "miss_ms_p50 on service-mix"},
	{Name: "probe.ns_per_span", Unit: "ns", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix"},

	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "miss_ms_* and hit_ms_* on service-mix"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "miss_ms_*; rises before ops_per_s stops rising"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix"},
	{Name: "server.fetch_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "hit_ms_p50 on service-mix"},
	{Name: "server.hit_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "hit_ms_p50 on service-mix"},
	{Name: "server.miss_ms_p50", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on service-mix"},
	{Name: "server.miss_over_direct", Unit: "ratio", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix"},
	{Name: "server.retained_mb_per_job", Unit: "MB", Better: "lower", Class: perLayer, Moves: "peak_rss_mb on service-mix"},
	{Name: "server.artifact_kb_per_job", Unit: "KB", Better: "lower", Class: perLayer, Moves: "peak_rss_mb on service-mix"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Class: perLayer, Moves: "failed operations on service-mix (expected 0)"},
	{Name: "resultcache.get_ns", Unit: "ns", Better: "lower", Class: perLayer, Moves: "hit_ms_p50 on service-mix"},
	{Name: "resultcache.put_ns", Unit: "ns", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix; a cheaper put bought with a dearer get shows in get_ns"},
	{Name: "resultcache.hit_ratio", Unit: "ratio", Better: "higher", Class: perLayer, Exact: true, Moves: "nothing: fixed by the traffic mix"},
	{Name: "resultcache.evictions", Unit: "count", Better: "lower", Class: perLayer, Exact: true, Moves: "nothing: expected 0, the working set fits"},

	{Name: "farm.overhead_us_per_run", Unit: "us", Better: "lower", Class: perLayer, Moves: "ops_per_s on sweep-grid"},
	{Name: "farm.queue_overhead_us_per_job", Unit: "us", Better: "lower", Class: perLayer, Moves: "miss_ms_p50 on service-mix"},
	{Name: "farm.worker_scaling", Unit: "ratio", Better: "higher", Class: perLayer, Moves: "ops_per_s on sweep-grid"},
	{Name: "pipeline.overhead_share", Unit: "ratio", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on sweep-grid"},
	{Name: "pipeline.artifact_mb", Unit: "MB", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on sweep-grid"},
	{Name: "pipeline.validate_ms", Unit: "ms", Better: "lower", Class: perLayer, Moves: "op_ms_p50 on sweep-grid"},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func metricsOf(class metricClass) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.Class == class {
			out = append(out, d)
		}
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedEntry  `json:"end_to_end"`
	PerLayer   []layerEntry    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// renderBenchmarkFile builds BENCHMARK.json from the tables in this
// package, so the declaration cannot drift from what the program emits
// (`go run ./benchmark -write-benchmark-json` rewrites it; a self-test
// compares the two).
func renderBenchmarkFile(runSeconds int) ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range metricsOf(endToEnd) {
		f.EndToEnd = append(f.EndToEnd, boundedEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range metricsOf(perLayer) {
		f.PerLayer = append(f.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering BENCHMARK.json: %w", err)
	}
	return append(data, '\n'), nil
}
