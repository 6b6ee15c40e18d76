// Package core is the façade of the Mermaid architecture workbench: one
// entry point that ties together the application level (instrumented
// programs, stochastic descriptions, trace files), the trace generators, and
// the architecture level (detailed and task-level machine models), plus the
// reporting tools.
//
// Typical use:
//
//	wb, err := core.New(machine.T805Grid(4, 4))
//	res, err := wb.RunProgram(workload.Jacobi1D(16, 1024, 50))
//	wb.Report(os.Stdout, res)
package core

import (
	"fmt"
	"io"
	"os"

	"mermaid/internal/analysis"
	"mermaid/internal/machine"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
)

// Workbench wraps one machine configuration, building a fresh machine model
// per run (models are single-use: statistics accumulate over one
// simulation).
type Workbench struct {
	cfg     machine.Config
	pb      *probe.Probe
	analyze bool
}

// Option customises a workbench.
type Option func(*Workbench)

// WithProbe attaches the observability layer: every machine the workbench
// builds registers its metrics in the probe's registry and, if the probe
// carries a timeline, records span events into it.
func WithProbe(pb *probe.Probe) Option {
	return func(w *Workbench) { w.pb = pb }
}

// WithAnalysis enables the bottleneck analysis engine: every machine the
// workbench builds registers uniform busy/wait accounting with a fresh
// collector (one per run — models are single-use), and run results carry the
// bottleneck Report, which Report appends to the text output.
func WithAnalysis() Option {
	return func(w *Workbench) { w.analyze = true }
}

// New creates a workbench for the given machine configuration.
func New(cfg machine.Config, opts ...Option) (*Workbench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Workbench{cfg: cfg}
	for _, o := range opts {
		o(w)
	}
	return w, nil
}

// Load creates a workbench from a JSON machine configuration file.
func Load(path string, opts ...Option) (*Workbench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := machine.ParseConfig(data)
	if err != nil {
		return nil, err
	}
	return New(cfg, opts...)
}

// Config returns the machine configuration.
func (w *Workbench) Config() machine.Config { return w.cfg }

// Build instantiates a fresh machine model in a fresh environment.
func (w *Workbench) Build() (*machine.Machine, error) {
	env := sim.NewEnv(w.cfg.Seed, w.pb)
	if w.analyze {
		env = env.WithCollector(analysis.New())
	}
	return machine.Build(env, w.cfg)
}

// RunProgram executes an instrumented, execution-driven program on a fresh
// machine and returns the measured result.
func (w *Workbench) RunProgram(prog *trace.Program) (*machine.Result, error) {
	m, err := w.Build()
	if err != nil {
		return nil, err
	}
	return m.RunProgram(prog)
}

// RunTraces replays pre-generated traces (one source per processor).
func (w *Workbench) RunTraces(srcs []trace.Source) (*machine.Result, error) {
	m, err := w.Build()
	if err != nil {
		return nil, err
	}
	return m.Run(srcs)
}

// RunStochastic generates synthetic traces from the description and runs
// them — the fast-prototyping path.
func (w *Workbench) RunStochastic(d stochastic.Desc) (*machine.Result, error) {
	m, err := w.Build()
	if err != nil {
		return nil, err
	}
	return m.RunStochastic(d)
}

// RunTraceFiles replays binary trace files, one per processor.
func (w *Workbench) RunTraceFiles(paths []string) (*machine.Result, error) {
	srcs := make([]trace.Source, len(paths))
	closers := make([]io.Closer, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		closers[i] = f
		srcs[i] = trace.FromReader(f)
	}
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	return w.RunTraces(srcs)
}

// Report writes a human-readable summary of a run: the headline numbers
// followed by the full metric tree.
func (w *Workbench) Report(out io.Writer, res *machine.Result) error {
	fmt.Fprintf(out, "machine:        %s (%s mode, %d processors)\n",
		w.cfg.Name, w.cfg.Mode, res.Processors)
	fmt.Fprintf(out, "simulated time: %d cycles\n", res.Cycles)
	fmt.Fprintf(out, "instructions:   %d\n", res.Instructions)
	fmt.Fprintf(out, "kernel events:  %d\n", res.Events)
	fmt.Fprintf(out, "host wall time: %v\n", res.Wall)
	fmt.Fprintf(out, "sim speed:      %.0f target cycles/s\n", res.CyclesPerSecond())
	fmt.Fprintf(out, "slowdown/proc:  %.1f (at 1 GHz host), %.1f (at the paper's 143 MHz host)\n",
		res.SlowdownPerProcessor(1e9), res.SlowdownPerProcessor(143e6))
	fmt.Fprintln(out)
	if err := stats.RenderSet(out, res.Stats); err != nil {
		return err
	}
	if res.Analysis != nil {
		fmt.Fprintln(out)
		return res.Analysis.Render(out)
	}
	return nil
}
