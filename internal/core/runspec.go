package core

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"mermaid/internal/fault"
	"mermaid/internal/machine"
	"mermaid/internal/stochastic"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// RunSpec describes one run: a machine and the workload to run on it. The
// mermaid command's flags fill one, and a mermaidd POST /jobs document is
// one in its JSON form. Resolve parses and checks it.
//
// The machine is exactly one of Preset, Config or Topology, with an optional
// Seed and Faults. The workload is at most one of Workload (a stochastic
// description), App or Traces.
type RunSpec struct {
	// Name labels the run; empty means the machine configuration's name.
	Name string `json:"name,omitempty"`
	// Preset names a built-in machine (PresetNames).
	Preset string `json:"preset,omitempty"`
	// Config is a full machine configuration document (schema v2).
	Config json.RawMessage `json:"config,omitempty"`
	// Topology builds a task-level machine from a compact spec string
	// ("torus:8x8", "fattree:32x3", ...).
	Topology string `json:"topology,omitempty"`
	// Seed overrides the configuration's seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Faults is a fault schedule document.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Workload is a stochastic workload description document. Its own Seed
	// drives trace generation.
	Workload json.RawMessage `json:"workload,omitempty"`

	// ConfigFile, FaultsFile and Desc name files read in place of the
	// Config, Faults and Workload documents; their parse errors name the
	// file. They, App and Traces have no JSON form.
	ConfigFile, FaultsFile, Desc string `json:"-"`
	// App names an instrumented application (AppNames), run at the sizes
	// below.
	App                              string `json:"-"`
	Rounds, Iters, Bytes, Cells, Dim int    `json:"-"`
	// Traces names binary trace files, one per processor.
	Traces []string `json:"-"`
}

// DecodeRunSpec reads a RunSpec in its JSON form. Unknown fields are
// refused.
func DecodeRunSpec(r io.Reader) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// Resolve parses and checks the description: it returns the validated
// machine configuration and the driver that runs the workload on a machine
// built from it, nil when the description names no workload.
func (s RunSpec) Resolve() (machine.Config, func(*machine.Machine) (*machine.Result, error), error) {
	cfg, err := s.machine()
	if err != nil {
		return machine.Config{}, nil, err
	}
	workloads := given("app desc traces", s.App != "", len(s.Workload) > 0 || s.Desc != "", len(s.Traces) > 0)
	switch {
	case len(workloads) > 1:
		return machine.Config{}, nil, fmt.Errorf("give exactly one of %s", strings.Join(workloads, " and "))
	case s.App != "":
		sizes := map[string]int{"rounds": s.Rounds, "iters": s.Iters, "bytes": s.Bytes}
		for _, name := range appSizes[s.App] {
			if sizes[name] < 1 {
				return machine.Config{}, nil, fmt.Errorf("%s needs -%s of at least 1, have %d", s.App, name, sizes[name])
			}
		}
		return cfg, s.runApp, nil
	case len(s.Traces) > 0:
		return cfg, s.runTraces, nil
	case len(workloads) == 0:
		return cfg, nil, nil
	}
	d, err := parseDocument(s.Workload, s.Desc, "workload", stochastic.ParseDesc)
	if err != nil {
		return machine.Config{}, nil, err
	}
	streams := cfg.Nodes
	if cfg.Mode == machine.Detailed {
		streams *= cfg.Node.Hierarchy.CPUs
	}
	if d.Nodes == 0 {
		d.Nodes = streams
	}
	if d.Nodes != streams {
		return machine.Config{}, nil, fmt.Errorf("workload describes %d nodes, machine has %d streams", d.Nodes, streams)
	}
	if (d.Level == stochastic.TaskLevel) != (cfg.Mode == machine.TaskLevel) {
		return machine.Config{}, nil, fmt.Errorf("%s-level workload on a %s-mode machine", d.Level, cfg.Mode)
	}
	return cfg, func(m *machine.Machine) (*machine.Result, error) { return m.RunStochastic(d) }, nil
}

// machine resolves the machine half of the description.
func (s RunSpec) machine() (machine.Config, error) {
	var (
		cfg machine.Config
		err error
	)
	switch machines := given("preset config topology", s.Preset != "", len(s.Config) > 0 || s.ConfigFile != "", s.Topology != ""); {
	case len(machines) > 1:
		return cfg, fmt.Errorf("give exactly one of %s", strings.Join(machines, " and "))
	case len(machines) == 0:
		return cfg, fmt.Errorf("a machine is required: preset, config or topology")
	case s.Preset != "":
		mk, ok := presets[s.Preset]
		if !ok {
			return cfg, fmt.Errorf("unknown preset %q (have: %s)", s.Preset, strings.Join(PresetNames(), ", "))
		}
		cfg = mk()
	case s.Topology != "":
		cfg, err = machine.TaskMachineFromSpec(s.Topology)
	default:
		cfg, err = parseDocument(s.Config, s.ConfigFile, "", machine.ParseConfig)
	}
	if err != nil {
		return cfg, err
	}
	if s.Seed != nil {
		cfg.Seed = *s.Seed
	}
	if len(s.Faults) > 0 || s.FaultsFile != "" {
		if cfg.Faults, err = parseDocument(s.Faults, s.FaultsFile, "", fault.ParseSchedule); err != nil {
			return cfg, err
		}
	}
	err = cfg.Validate()
	return cfg, err
}

// given returns those of the space-separated names whose flag is set.
func given(names string, set ...bool) []string {
	var out []string
	for i, name := range strings.Fields(names) {
		if set[i] {
			out = append(out, name)
		}
	}
	return out
}

// parseDocument parses a document given inline or, when file is set, read
// from the file. A parse error carries label, or the file's name.
func parseDocument[T any](inline json.RawMessage, file, label string, parse func([]byte) (T, error)) (T, error) {
	data := []byte(inline)
	if file != "" {
		var err error
		if data, err = os.ReadFile(file); err != nil {
			var zero T
			return zero, err
		}
		label = file
	}
	v, err := parse(data)
	if err != nil && label != "" {
		err = fmt.Errorf("%s: %w", label, err)
	}
	return v, err
}

// runTraces replays the trace files, one per processor.
func (s RunSpec) runTraces(m *machine.Machine) (*machine.Result, error) {
	srcs := make([]trace.Source, len(s.Traces))
	for i, p := range s.Traces {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		srcs[i] = trace.FromReader(f)
	}
	return m.Run(srcs)
}

var presets = map[string]func() machine.Config{
	"t805-2x1":      func() machine.Config { return machine.T805Grid(2, 1) },
	"t805-2x2":      func() machine.Config { return machine.T805Grid(2, 2) },
	"t805-4x4":      func() machine.Config { return machine.T805Grid(4, 4) },
	"t805-8x8":      func() machine.Config { return machine.T805Grid(8, 8) },
	"t805-task-4x4": func() machine.Config { return machine.T805GridTaskLevel(4, 4) },
	"ppc601":        machine.PPC601Machine,
	"ppc601-smp4":   func() machine.Config { return machine.PPC601SMP(4) },
	"ppc601-smp8":   func() machine.Config { return machine.PPC601SMP(8) },
	"hybrid-2x2x2":  func() machine.Config { return machine.HybridCluster(2, 2, 2) },
	"dsm-2x2":       func() machine.Config { return machine.DSMCluster(2, 2) },
}

// PresetNames lists the machines a RunSpec's Preset may name, sorted.
func PresetNames() []string { return slices.Sorted(maps.Keys(presets)) }

var apps = []string{"pingpong", "jacobi", "jacobi-dsm", "matmul", "allreduce", "transpose", "butterfly", "shared"}

// AppNames lists the applications a RunSpec's App may name.
func AppNames() []string { return slices.Clone(apps) }

// appSizes names, by flag, the sizes each application reads that must be at
// least 1; Cells and Dim have per-processor minimums, which runApp checks.
var appSizes = map[string][]string{
	"pingpong":   {"rounds", "bytes"},
	"jacobi":     {"iters"},
	"jacobi-dsm": {"iters"},
	"transpose":  {"bytes"},
	"butterfly":  {"bytes", "iters"},
	"shared":     {"iters"},
}

// runApp runs the instrumented application on m, refusing before the run
// one the machine cannot run.
func (s RunSpec) runApp(m *machine.Machine) (*machine.Result, error) {
	n, size := m.Streams(), uint32(s.Bytes)
	switch s.App {
	case "pingpong", "jacobi", "matmul", "allreduce", "transpose", "butterfly":
		// A message-passing rank is addressed as a network node.
		if net := m.Network(); net != nil && n > net.Nodes() {
			return nil, fmt.Errorf("%s runs one message-passing rank per processor, but the machine has %d processors and %d network nodes", s.App, n, net.Nodes())
		}
	}
	switch s.App {
	case "pingpong":
		if n != 2 {
			return nil, fmt.Errorf("pingpong needs a 2-processor machine, have %d", n)
		}
		return m.RunProgram(workload.PingPong(s.Rounds, size))
	case "jacobi":
		if s.Cells < 2*n {
			return nil, fmt.Errorf("jacobi needs -cells of at least 2 per processor, have %d over %d", s.Cells, n)
		}
		return m.RunProgram(workload.Jacobi1D(n, s.Cells, s.Iters))
	case "jacobi-dsm":
		if m.DSM() == nil {
			return nil, fmt.Errorf("jacobi-dsm needs a machine with virtual shared memory (DSM config)")
		}
		if s.Cells < 2*n {
			return nil, fmt.Errorf("jacobi-dsm needs -cells of at least 2 per processor, have %d over %d", s.Cells, n)
		}
		return m.RunProgram(workload.JacobiDSM(n, s.Cells, s.Iters))
	case "matmul":
		if s.Dim < n {
			return nil, fmt.Errorf("matmul needs -dim of at least one row per processor, have %d over %d", s.Dim, n)
		}
		var out [][]float64
		return m.RunProgram(workload.MatMul(n, s.Dim, &out))
	case "allreduce":
		results := make([]float64, n)
		return m.RunProgram(workload.RingAllreduce(n, 16, results))
	case "transpose":
		return m.RunProgram(workload.Transpose(n, size))
	case "butterfly":
		if n < 2 || n&(n-1) != 0 {
			return nil, fmt.Errorf("butterfly needs a power-of-two processor count, have %d", n)
		}
		return m.RunProgram(workload.Butterfly(n, size, s.Iters))
	case "shared":
		return m.RunProgram(workload.SharedCounter(n, s.Iters*10))
	}
	return nil, fmt.Errorf("unknown application %q", s.App)
}
