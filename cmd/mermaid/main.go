// Command mermaid is the workbench driver: it builds a machine model (from a
// preset or a JSON configuration), attaches a workload (an instrumented
// application, a stochastic description, or pre-generated trace files), runs
// the simulation and reports the results. It also regenerates every
// experiment of the paper reproduction (see EXPERIMENTS.md).
//
// Usage examples:
//
//	mermaid -preset t805-4x4 -app jacobi -iters 20
//	mermaid -config mymachine.json -desc workload.json
//	mermaid -preset ppc601 -traces node0.mmt
//	mermaid -experiment all
//	mermaid -experiment cache-sweep -sweep "sizes=4,16;assocs=2"
//	mermaid pipeline run -grid grid.json
//	mermaid pipeline diff runs/A runs/B
//	mermaid -preset hybrid-2x2x2 -dump-config
//	mermaid -topology fattree:32x3 -desc sweep.json
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/experiments"
	"mermaid/internal/farm"
	"mermaid/internal/hostprobe"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

func main() {
	// Subcommand dispatch: `mermaid pipeline <run|diff|validate> ...` has its
	// own flag sets and bypasses the single-run flags below.
	if len(os.Args) > 1 && os.Args[1] == "pipeline" {
		if err := pipelineMain(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	// The machine and workload flags fill the run's description.
	var spec core.RunSpec
	flag.StringVar(&spec.Preset, "preset", "", "machine preset: "+strings.Join(core.PresetNames(), ", "))
	flag.StringVar(&spec.ConfigFile, "config", "", "machine configuration JSON file")
	flag.StringVar(&spec.Topology, "topology", "", "build a task-level machine on this topology, e.g. torus:8x8, torus3d:16x16x16, fattree:32x3, dragonfly:8x4x33 (instead of -preset/-config)")
	flag.StringVar(&spec.FaultsFile, "faults", "", "fault schedule JSON file (link/node down windows, packet noise, retransmission parameters)")
	flag.StringVar(&spec.App, "app", "", "instrumented application: "+strings.Join(core.AppNames(), ", "))
	flag.IntVar(&spec.Rounds, "rounds", 10, "pingpong rounds")
	flag.IntVar(&spec.Iters, "iters", 10, "application iterations/sweeps")
	flag.IntVar(&spec.Bytes, "bytes", 1024, "message/block size in bytes")
	flag.IntVar(&spec.Cells, "cells", 256, "jacobi grid cells")
	flag.IntVar(&spec.Dim, "dim", 16, "matmul matrix dimension")
	flag.StringVar(&spec.Desc, "desc", "", "stochastic workload description JSON file")
	var (
		traces     = flag.String("traces", "", "comma-separated binary trace files, one per processor")
		dumpConfig = flag.Bool("dump-config", false, "print the machine configuration as JSON and exit")

		experiment = flag.String("experiment", "", "run a reproduction experiment: all, list, "+strings.Join(experiments.Names(), ", "))
		sweepF     = flag.String("sweep", "", "experiment sweep overrides, ';'-separated name=value pairs (values may contain commas), e.g. \"sizes=4,16;assocs=2\"")
		csv        = flag.Bool("csv", false, "emit experiment tables as CSV")
		monitor    = flag.Int64("monitor", 0, "print run-time sparklines sampled every N cycles (0 = off); N is also the sampling interval of -metrics and -monitor-addr (default 10000)")

		reportPath  = flag.String("report", "", "run the bottleneck analysis and write its JSON report to this file")
		monitorAddr = flag.String("monitor-addr", "", "serve live run state over HTTP on this address (/metrics Prometheus text, /progress JSON)")

		timeline   = flag.String("timeline", "", "write a virtual-time timeline (Chrome trace-event JSON, Perfetto-loadable) to this file")
		metricsOut = flag.String("metrics", "", "write periodic samples of the run's report, one column per metric path (e.g. nif3/sends) and one row per -monitor interval plus the end of the run, to this CSV file")

		parallel = flag.Int("parallel", runtime.NumCPU(), "max simulations to run concurrently (experiment sweeps and -repeats)")
		repeats  = flag.Int("repeats", 1, "replications of the run with per-replica derived seeds")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		hostTrace = flag.String("host-trace", "", "write a wall-clock host trace of the -repeats farm workers (Chrome trace-event JSON) to this file. Host telemetry never changes simulated results")
	)
	flag.Parse()

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	profileStop = stop
	defer stop()

	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel must be at least 1, have %d", *parallel))
	}
	if *experiment != "" {
		// An experiment makes no single run: refuse the flags that
		// configure one, as -sweep is refused without -experiment.
		var single []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "experiment", "sweep", "csv", "parallel", "cpuprofile", "memprofile":
			default:
				single = append(single, "-"+f.Name)
			}
		})
		if len(single) > 0 {
			fatal(fmt.Errorf("%s configure a single run; -experiment takes only -sweep, -csv, -parallel, -cpuprofile and -memprofile", strings.Join(single, ", ")))
		}
		sweep, err := parseSweep(*sweepF)
		if err != nil {
			fatal(err)
		}
		if err := runExperiments(os.Stdout, *experiment, *csv, *parallel, sweep); err != nil {
			fatal(err)
		}
		return
	}
	if *sweepF != "" {
		fatal(fmt.Errorf("-sweep only applies to -experiment runs"))
	}

	switch {
	case *monitor < 0:
		fatal(fmt.Errorf("-monitor must be 0 (off) or a positive interval, have %d", *monitor))
	case *repeats < 1:
		fatal(fmt.Errorf("-repeats must be at least 1, have %d", *repeats))
	case *hostTrace != "" && *repeats == 1:
		fatal(fmt.Errorf("-host-trace records the farm workers of a -repeats run; use -repeats 2 or more"))
	}
	if *traces != "" {
		spec.Traces = strings.Split(*traces, ",")
	}
	cfg, runOnce, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}
	if *dumpConfig {
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	if runOnce == nil {
		flag.Usage()
		os.Exit(2)
	}
	runName := cmp.Or(spec.App, spec.Desc, *traces)

	// The live endpoint serves a single run and a -repeats sweep alike; with
	// it off the scope stays nil, the disabled scope.
	var scope *analysis.Scope
	if *monitorAddr != "" {
		mon, err := analysis.NewMonitor(*monitorAddr)
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		scope = mon.Scope()
		fmt.Fprintf(os.Stderr, "mermaid: monitoring on http://%s (/metrics, /progress)\n", mon.Addr())
	}

	if *repeats > 1 {
		if *monitor > 0 || *timeline != "" || *metricsOut != "" || *reportPath != "" {
			fatal(fmt.Errorf("-monitor, -timeline, -metrics and -report observe a single machine; use -repeats 1"))
		}
		var host *hostprobe.Trace
		if *hostTrace != "" {
			host = hostprobe.NewTrace()
		}
		if err := runReplicated(os.Stdout, cfg, runName, *repeats, *parallel, scope, host, runOnce); err != nil {
			fatal(err)
		}
		writeHostTrace(host, *hostTrace)
		return
	}

	var opts []core.Option
	if *timeline != "" {
		opts = append(opts, core.WithProbe(probe.New(probe.Config{Timeline: true})))
	}
	if *reportPath != "" {
		opts = append(opts, core.WithAnalysis())
	}
	wb, err := core.New(cfg, opts...)
	if err != nil {
		fatal(err)
	}
	m, err := wb.Build()
	if err != nil {
		fatal(err)
	}
	scope.SetRuns(1)
	var history *stats.History
	if *metricsOut != "" {
		history = new(stats.History)
	}
	view, finish, err := observe(m, pearl.Time(*monitor), history, scope)
	if err != nil {
		fatal(err)
	}

	res, err := runOnce(m)
	if err != nil {
		fatal(err)
	}
	finish(res)
	scope.RunDone()
	scope.Finish()
	if *reportPath != "" {
		if res.Analysis == nil {
			fatal(fmt.Errorf("-report: run produced no analysis"))
		}
		if err := writeFileWith(*reportPath, res.Analysis.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s\n", *reportPath)
	}
	if *timeline != "" {
		tl := m.MergedTimeline()
		if err := writeFileWith(*timeline, tl.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s (%d timeline events)\n", *timeline, tl.Events())
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, history.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mermaid: wrote %s\n", *metricsOut)
	}
	if err := wb.Report(os.Stdout, res); err != nil {
		fatal(err)
	}
	if view != nil {
		fmt.Println("\nrun-time monitor:")
		if err := view.render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// parseSweep parses ';'-separated name=value pairs (';' because sweep values
// are comma-separated lists themselves). A name given twice is refused: one
// value would silently stand for both.
func parseSweep(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	sweep := map[string]string{}
	for _, pair := range strings.Split(s, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, value, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-sweep: %q is not a name=value pair", pair)
		}
		name = strings.TrimSpace(name)
		if _, dup := sweep[name]; dup {
			return nil, fmt.Errorf("-sweep: %s is given twice", name)
		}
		sweep[name] = strings.TrimSpace(value)
	}
	return sweep, nil
}

func runExperiments(w io.Writer, which string, csv bool, workers int, sweep map[string]string) error {
	if which == "list" {
		return experiments.Describe().Render(w)
	}
	exps := experiments.All()
	if which != "all" {
		e, ok := experiments.ByName(which)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have: all, list, %s)", which, strings.Join(experiments.Names(), ", "))
		}
		exps = []experiments.Experiment{e}
	} else if len(sweep) > 0 {
		return fmt.Errorf("-sweep overrides one experiment's parameters; use it with a single -experiment, not all")
	}
	return runExperimentSet(w, exps, csv, workers, sweep)
}

// runExperimentSet runs every experiment — a failure does not stop the rest —
// printing each rendered table in canonical order and returning all failures
// joined. Sweep points within an experiment are farmed across workers.
func runExperimentSet(w io.Writer, exps []experiments.Experiment, csv bool, workers int, sweep map[string]string) error {
	jobs := make([]farm.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = farm.Job{Name: e.Name, Run: func(*farm.RunContext) (any, error) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "== experiment %s ==\n", e.Name)
			rs, err := e.Execute(experiments.Spec{Workers: workers, Sweep: sweep})
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", e.Name, err)
			}
			if csv {
				if err := rs.Table.RenderCSV(&buf); err != nil {
					return nil, err
				}
			} else if err := rs.Table.Render(&buf); err != nil {
				return nil, err
			}
			fmt.Fprintln(&buf)
			return buf.String(), nil
		}}
	}
	// Experiments farm their own sweep points; running them one at a time
	// here keeps the worker budget from compounding.
	rep := farm.New(1).Run(jobs)
	for _, r := range rep.Results {
		if r.Err == nil {
			fmt.Fprint(w, r.Value.(string))
		}
	}
	return rep.Errs()
}

// runReplicated executes the configured run `repeats` times with per-replica
// derived seeds, farming the replicas across `workers` host goroutines, and
// reports one row per replica plus batch aggregates — including the message
// latency distribution merged across every replica. A non-nil scope is fed
// run completions for the monitor's /progress endpoint.
func runReplicated(w io.Writer, cfg machine.Config, name string, repeats, workers int, scope *analysis.Scope, host *hostprobe.Trace, runOnce func(*machine.Machine) (*machine.Result, error)) error {
	pool := farm.New(workers)
	pool.Repeats = repeats
	pool.Seed = cfg.Seed
	pool.Host = host
	scope.SetRuns(repeats)
	pool.OnResult = func(res farm.Result) {
		scope.ObserveRun(res.Cycles, res.Events)
		scope.RunDone()
	}
	job := farm.Job{Name: name, Run: func(rc *farm.RunContext) (any, error) {
		c := cfg
		c.Seed = rc.Seed
		wb, err := core.New(c)
		if err != nil {
			return nil, err
		}
		m, err := wb.Build()
		if err != nil {
			return nil, err
		}
		res, err := runOnce(m)
		if err != nil {
			return nil, err
		}
		rc.ObserveSim(res.Cycles, res.Events)
		if net := m.Network(); net != nil {
			h := *net.MessageLatency() // copy: the machine dies with the run
			return &h, nil
		}
		return nil, nil
	}}
	rep := pool.Run([]farm.Job{job})
	scope.Finish()
	fmt.Fprintf(w, "%d replications of %s (%s), seeds derived from %d:\n", repeats, name, cfg.Name, cfg.Seed)
	if err := rep.Table().Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := stats.RenderSet(w, rep.Summary()); err != nil {
		return err
	}
	// Aggregate latency across replicas instead of dropping all but the first:
	// bucket-wise histogram merging keeps min/max/mean exact over the batch.
	var agg stats.Histogram
	for _, v := range rep.Values() {
		if h, ok := v.(*stats.Histogram); ok {
			agg.Merge(h)
		}
	}
	if agg.Count() > 0 {
		fmt.Fprintf(w, "message latency over all replicas: mean %.1f cyc, min %d, max %d (%d messages)\n",
			agg.Mean(), agg.Min(), agg.Max(), agg.Count())
	}
	return rep.Errs()
}

// profileStop flushes any active profiles. fatal calls it explicitly because
// os.Exit skips deferred calls; startProfiles makes it safe to run twice.
var profileStop = func() {}

// startProfiles starts CPU profiling and/or arranges a heap profile dump,
// returning an idempotent stop function that flushes both.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mermaid:", err)
				return
			}
			runtime.GC() // collect garbage so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mermaid:", err)
			}
			f.Close()
		}
	}, nil
}

// writeHostTrace exports the wall-clock host trace, if one was recorded.
func writeHostTrace(host *hostprobe.Trace, path string) {
	if host == nil || path == "" {
		return
	}
	if err := writeFileWith(path, host.WriteJSON); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mermaid: wrote %s (%d host trace events)\n", path, host.Events())
}

// writeFileWith creates path and streams render into it, propagating both
// render and close errors.
func writeFileWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mermaid:", err)
	profileStop()
	os.Exit(1)
}
