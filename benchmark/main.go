// Command benchmark is the Mermaid performance benchmark: six workloads,
// a handful of end-to-end metrics measured untraced, and a cost budget per
// layer (internal/<package>) measured in a separate traced run. See
// README.md in this directory.
//
//	go run ./benchmark -workload task-mesh64 -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -out benchmark/results/a     # all workloads, both passes
//	go run ./benchmark compare benchmark/results/a benchmark/results/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var outDir string
	var repeat int
	var writeBenchmark bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: every workload, untraced then traced, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "run length; operation counts scale with it")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "two operations per workload and probes at 1% size: drives every path, measures nothing")
	flag.BoolVar(&o.updateExpected, "update-expected", false, "rewrite benchmark/expected/<workload>.json from this run (default seed only)")
	flag.StringVar(&o.resultPath, "result", "", "with -workload: also write the full report as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -workload -trace 1: write the spans as Chrome trace-event JSON to this file")
	flag.StringVar(&outDir, "out", "", "without -workload: directory for the result files (default benchmark/results/<seed>)")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: how many times to run the whole suite (run1, run2, ... under -out)")
	flag.BoolVar(&writeBenchmark, "write-benchmark-json", false, "rewrite BENCHMARK.json from the tables in this package and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	switch {
	case writeBenchmark:
		data, err := renderBenchmarkFile(benchmarkRunSeconds)
		if err == nil {
			err = os.WriteFile("BENCHMARK.json", data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case o.workload == "":
		os.Exit(suiteMain(o, outDir, repeat))
	default:
		rep, err := runOne(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if err := emit(rep, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// benchmarkRunSeconds is BENCHMARK.json's run_seconds: how long the
// acceptance driver asks one run to measure.
const benchmarkRunSeconds = 10

// contractLine is the last line of standard output: exactly the keys the
// acceptance contract names, with the end-to-end metrics of BENCHMARK.json
// after an untraced run and its per-layer metrics after a traced one.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractOf(rep *runReport) (contractLine, error) {
	class := endToEnd
	if rep.Trace != 0 {
		class = perLayer
	}
	line := contractLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]contractValue{}}
	for _, d := range metricsOf(class) {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	return line, nil
}

// emit prints every metric by name with unit, direction and bound, writes
// the result file if asked, and ends standard output with the contract line.
func emit(rep *runReport, o options) error {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  nproc %d  %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.NProc, rep.Host.CPUModel)
	fmt.Println(unvalidated)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		d, _ := metricByName(name)
		bound := "no bound"
		switch {
		case d.Exact:
			bound = "exact: must not move"
		case d.Class != perLayer:
			bound = fmt.Sprintf("bound %g%%", d.Bound*100)
		}
		fmt.Printf("  %-34s %14.6g %-9s %-6s better  %-22s n=%d\n", name, m.Value, m.Unit, d.Better, bound, m.Samples)
	}
	fmt.Printf("attempted %d  failed %d  digest %s  golden %s\n", rep.Attempted, rep.Failed, rep.Digest, rep.Golden)
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
	if o.resultPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(o.resultPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(o.resultPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := contractOf(rep)
	if err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
