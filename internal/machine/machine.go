// Package machine assembles complete multicomputer models from the node and
// network building blocks, at either abstraction level of the workbench:
//
//   - Detailed mode replicates the single-node computational model for every
//     MIMD node and couples each to its endpoint in the multi-node
//     communication model (Fig. 2/3): instruction-level traces drive the
//     CPUs, caches, buses and memories; communication operations flow into
//     the network.
//   - Task-level mode runs the communication model alone, driven by
//     task-level traces through abstract processors — the fast-prototyping
//     path whose slowdown is only a few host cycles per simulated cycle.
//
// Shared-memory machines are a single multi-CPU node without a network;
// hybrid machines are multi-CPU nodes on a message-passing network (§4.3).
package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"mermaid/internal/analysis"
	"mermaid/internal/dsm"
	"mermaid/internal/fault"
	"mermaid/internal/network"
	"mermaid/internal/node"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// Mode selects the abstraction level of a machine model.
type Mode string

// Modes.
const (
	// Detailed simulates at the level of abstract machine instructions.
	Detailed Mode = "detailed"
	// TaskLevel simulates computation at the task level (communication
	// model only).
	TaskLevel Mode = "task"
)

// ConfigVersion is the current machine-configuration schema version. Version
// 0 files (the legacy, unversioned schema) are upgraded on parse; versions
// beyond ConfigVersion are rejected. Version history:
//
//	v1 — adds the Faults block.
//	v2 — adds the Engine selector and the hierarchical topology families
//	     (torus3d, fattree, dragonfly).
const ConfigVersion = 2

// Engine selects the task-level execution engine.
//
// The process engine runs one simulation process per node — fully featured
// (timeline probes, bottleneck collector) but with per-node coroutine cost.
// The compact engine steps a flat struct-of-arrays node state machine with
// plain kernel events: byte-identical reports, two orders of magnitude less
// memory per node, no process hand-offs — the only way to 10^5..10^6-node
// machines. EngineAuto (or empty) picks compact for large task-level machines
// when no process-level instrumentation is attached.
const (
	EngineAuto    = "auto"
	EngineProcess = "process"
	EngineCompact = "compact"
)

// CompactAutoThreshold is the node count at which EngineAuto switches a
// task-level machine to the compact engine. Below it the engines are
// indistinguishable in output and close enough in speed that the fully
// instrumentable process engine stays the default.
const CompactAutoThreshold = 4096

// Config describes a complete machine.
type Config struct {
	// Version is the configuration schema version: omitted/0 for a legacy
	// file (upgraded to the current schema on parse), or ConfigVersion. The
	// Faults block exists only from version 1 on.
	Version int `json:"version,omitempty"`
	Name    string
	Mode    Mode
	// Nodes is the MIMD node count; it must match the topology size.
	Nodes int
	// Node parameterises every node (detailed mode only).
	Node node.Config
	// Network parameterises the interconnect. A single-node machine
	// (shared-memory simulation) may leave it zero-valued.
	Network network.Config
	// DSM, when non-nil, layers a virtual shared memory over the network
	// (detailed multi-node machines only): loads and stores to the shared
	// segment are resolved by a page-based protocol instead of explicit
	// communication (§5's future work).
	DSM *dsm.Config
	// Faults, when non-nil and non-empty, is the declarative fault plan
	// (schema v1): link/node down windows, packet noise and retransmission
	// parameters, applied deterministically in virtual time. Requires a
	// networked (multi-node) machine.
	Faults *fault.Schedule `json:"faults,omitempty"`
	// Seed drives every random policy in the model.
	Seed uint64
	// Shards, when positive, runs the simulation on the conservative
	// parallel engine: the machine's nodes are cut into that many shards,
	// each owning a discrete-event kernel, synchronised in lookahead-sized
	// windows derived from the minimum link latency. Results are
	// byte-identical at any shard count. Zero selects the single-kernel
	// engine. Requires a networked machine; wormhole switching, non-minimal
	// routing, and DSM are not supported (see DESIGN.md §8).
	Shards int `json:"shards,omitempty"`
	// Engine selects the task-level execution engine: EngineAuto (or empty),
	// EngineProcess, or EngineCompact (schema v2; see DESIGN.md §9). Only
	// meaningful for single-kernel task-level machines; detailed mode and the
	// parallel engine always use processes.
	Engine string `json:"engine,omitempty"`
}

// Validate checks the configuration's cross-component consistency.
func (c *Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("machine: %d nodes", c.Nodes)
	}
	switch c.Mode {
	case Detailed, TaskLevel:
	default:
		return fmt.Errorf("machine: unknown mode %q", c.Mode)
	}
	if c.Mode == TaskLevel && c.Nodes < 2 {
		return fmt.Errorf("machine: task-level mode needs a network (>= 2 nodes)")
	}
	if c.hasNetwork() {
		if err := c.Network.Validate(); err != nil {
			return err
		}
	}
	if c.Mode == Detailed {
		if err := c.Node.Hierarchy.Validate(); err != nil {
			return err
		}
	}
	if c.DSM != nil {
		if c.Mode != Detailed || c.Nodes < 2 {
			return fmt.Errorf("machine: virtual shared memory requires a detailed multi-node machine")
		}
		if err := c.DSM.Validate(); err != nil {
			return err
		}
	}
	if !c.Faults.Empty() {
		if !c.hasNetwork() {
			return fmt.Errorf("machine: fault injection requires a networked (multi-node) machine")
		}
		if err := c.Faults.Validate(c.Nodes); err != nil {
			return err
		}
	}
	switch c.Engine {
	case "", EngineAuto, EngineProcess:
	case EngineCompact:
		if c.Mode != TaskLevel {
			return fmt.Errorf("machine: the compact engine is task-level only; detailed nodes need processes")
		}
		if c.Shards > 0 {
			return fmt.Errorf("machine: the compact engine is single-kernel; drop shards or use engine %q", EngineProcess)
		}
	default:
		return fmt.Errorf("machine: unknown engine %q (want %q, %q or %q)",
			c.Engine, EngineAuto, EngineProcess, EngineCompact)
	}
	if c.Shards < 0 {
		return fmt.Errorf("machine: %d shards", c.Shards)
	}
	if c.Shards > 0 {
		if !c.hasNetwork() {
			return fmt.Errorf("machine: the parallel engine requires a networked (multi-node) machine")
		}
		if c.DSM != nil {
			return fmt.Errorf("machine: virtual shared memory is not supported with shards")
		}
	}
	return nil
}

func (c *Config) hasNetwork() bool { return c.Nodes > 1 }

// ParseConfig decodes a machine configuration from JSON. Anything but
// whitespace after the JSON document is an error: a truncated or
// concatenated configuration must not silently half-parse. Legacy version-0
// files are upgraded to the current schema; files from a future schema are
// rejected rather than misread.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("machine: parsing config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("machine: trailing data after configuration JSON")
	}
	switch cfg.Version {
	case 0:
		// Legacy schema: identical to v1 except that it predates the Faults
		// block, so one appearing in an unversioned file is a mistake worth
		// rejecting, not upgrading.
		if cfg.Faults != nil {
			return Config{}, fmt.Errorf("machine: faults block requires config version 1 or later")
		}
		fallthrough
	case 1:
		// v1 predates the engine selector and the hierarchical topology
		// families; either appearing in an older file is a mistake.
		if cfg.Engine != "" {
			return Config{}, fmt.Errorf("machine: engine selector requires config version 2")
		}
		if topology.Hierarchical(cfg.Network.Topology.Kind) {
			return Config{}, fmt.Errorf("machine: topology %q requires config version 2", cfg.Network.Topology.Kind)
		}
		cfg.Version = ConfigVersion
	case ConfigVersion:
	default:
		return Config{}, fmt.Errorf("machine: unsupported config version %d (this build reads up to %d)",
			cfg.Version, ConfigVersion)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Machine is an instantiated multicomputer model.
type Machine struct {
	cfg   Config
	k     *pearl.Kernel
	pb    *probe.Probe
	net   *network.Network
	cnet  *network.CompactNet
	nodes []*node.Node
	procs []*network.Processor
	dsm   *dsm.Layer
	inj   *fault.Injector
	col   *analysis.Collector
	ran   bool // Run closes the kernels behind it: one run per machine

	// Parallel-engine state (nil/empty when cfg.Shards == 0): the shard
	// group, the sharded fabric, the node→shard map, and the per-shard
	// construction environments (kernel, RNG root, probe). k then aliases
	// shard 0's kernel; net stays nil and snet carries the fabric.
	group *pearl.ShardGroup
	snet  *network.ShardedNetwork
	part  []int
	envs  []sim.Env
	injs  []*fault.Injector
}

// New builds the machine in a fresh environment seeded from the
// configuration, without instrumentation. To attach a probe or share a
// kernel, build the environment yourself and use Build.
func New(cfg Config) (*Machine, error) {
	return Build(sim.NewEnv(cfg.Seed, nil), cfg)
}

// Build assembles the machine in the given environment. env.Kernel hosts
// every component; env.RNG (normally seeded with cfg.Seed) is the root of
// all component random streams; env.Probe, when non-nil, attaches the
// observability layer: every component registers its counters in the probe's
// metrics registry and, if the probe carries a timeline, emits span events
// into it.
func Build(env sim.Env, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 0 {
		return buildSharded(env, cfg)
	}
	k := env.Kernel
	if k == nil {
		return nil, fmt.Errorf("machine: nil kernel in environment")
	}
	m := &Machine{cfg: cfg, k: k, pb: env.Probe, col: env.Collect}
	// Kernel block spans (holds, receives, resource queues) feed the timeline
	// for every process opted in via TrackProcess, and the analysis collector
	// for every process. With neither attached the tracer stays nil and the
	// kernel hot path is untouched.
	tl := env.Timeline()
	switch {
	case tl != nil && m.col.Enabled():
		k.SetTracer(pearl.Tracers{tl, m.col})
	case tl != nil:
		k.SetTracer(tl)
	case m.col.Enabled():
		k.SetTracer(m.col)
	}
	if m.col.Enabled() {
		cpusPerNode := 1
		if cfg.Mode == Detailed {
			cpusPerNode = cfg.Node.Hierarchy.CPUs
		}
		m.col.SetMachine(cfg.Name, cpusPerNode)
	}
	env.Registry().Gauge("kernel.events", "", func() float64 { return float64(k.EventCount()) })
	if cfg.hasNetwork() {
		if cfg.Network.Topology.Kind == "" {
			return nil, fmt.Errorf("machine: %d nodes but no topology", cfg.Nodes)
		}
		if cfg.useCompact(env) {
			cn, err := network.NewCompact(env, cfg.Network)
			if err != nil {
				return nil, err
			}
			if cn.Nodes() != cfg.Nodes {
				return nil, fmt.Errorf("machine: %d nodes but topology %s has %d",
					cfg.Nodes, cn.Topology().Name(), cn.Nodes())
			}
			m.cnet = cn
		} else {
			net, err := network.New(env, cfg.Network)
			if err != nil {
				return nil, err
			}
			if net.Nodes() != cfg.Nodes {
				return nil, fmt.Errorf("machine: %d nodes but topology %s has %d",
					cfg.Nodes, net.Topology().Name(), net.Nodes())
			}
			m.net = net
		}
	}
	if cfg.Mode == Detailed {
		for i := 0; i < cfg.Nodes; i++ {
			var nif *network.NodeIf
			if m.net != nil {
				nif = m.net.Node(i)
			}
			nd, err := node.New(env, node.Params{ID: i, Cfg: cfg.Node, NIF: nif})
			if err != nil {
				return nil, err
			}
			m.nodes = append(m.nodes, nd)
		}
		if cfg.DSM != nil {
			layer, err := dsm.New(env, m.net, *cfg.DSM)
			if err != nil {
				return nil, err
			}
			m.dsm = layer
			for _, nd := range m.nodes {
				nd.AttachDSM(layer)
			}
		}
	}
	if !cfg.Faults.Empty() {
		// Registered last so that with an empty schedule the metric registry
		// and timeline are bit-identical to a build without the subsystem.
		inj, err := fault.NewInjector(k, m.topology(), *cfg.Faults, env.RNG, env.Probe)
		if err != nil {
			return nil, err
		}
		m.inj = inj
		if m.cnet != nil {
			m.cnet.AttachFaults(inj)
		} else {
			m.net.AttachFaults(inj)
		}
	}
	return m, nil
}

// useCompact resolves the engine selection for this build. Forcing
// EngineCompact with a timeline or collector attached is left to
// network.NewCompact, which rejects it with a descriptive error; EngineAuto
// quietly keeps the process engine in that case, since the user asked for
// instrumentation the compact engine cannot feed.
func (c *Config) useCompact(env sim.Env) bool {
	if c.Mode != TaskLevel || c.Shards > 0 {
		return false
	}
	switch c.Engine {
	case EngineCompact:
		return true
	case "", EngineAuto:
		return c.Nodes >= CompactAutoThreshold && env.Timeline() == nil && !env.Collect.Enabled()
	}
	return false
}

// topology returns the interconnect of whichever fabric the machine was
// built with, or nil for single-node machines.
func (m *Machine) topology() topology.Topology {
	switch {
	case m.cnet != nil:
		return m.cnet.Topology()
	case m.net != nil:
		return m.net.Topology()
	}
	return nil
}

// Faults returns the fault injector, or nil when the configuration schedules
// no faults.
func (m *Machine) Faults() *fault.Injector { return m.inj }

// DSM returns the virtual-shared-memory layer, or nil.
func (m *Machine) DSM() *dsm.Layer { return m.dsm }

// Kernel returns the machine's simulation kernel.
func (m *Machine) Kernel() *pearl.Kernel { return m.k }

// ShardGroup returns the parallel engine's shard group, or nil when the
// machine runs single-kernel (cfg.Shards == 0). Callers use it to attach
// host-side telemetry (pearl.ShardGroup.EnableTelemetry, window-span
// hooks); host observation never affects simulated results.
func (m *Machine) ShardGroup() *pearl.ShardGroup { return m.group }

// Collector returns the bottleneck-analysis collector, or nil when the
// analyzer is off.
func (m *Machine) Collector() *analysis.Collector { return m.col }

// Network returns the process-engine communication model (nil for
// single-node machines and under the compact or parallel engines).
func (m *Machine) Network() *network.Network { return m.net }

// Compact returns the compact-engine communication model, or nil when the
// machine runs on the process or parallel engine.
func (m *Machine) Compact() *network.CompactNet { return m.cnet }

// MessageLatency returns the end-to-end message latency distribution of
// whichever fabric the machine was built with, or nil for single-node
// machines.
func (m *Machine) MessageLatency() *stats.Histogram {
	switch {
	case m.net != nil:
		return m.net.MessageLatency()
	case m.cnet != nil:
		return m.cnet.MessageLatency()
	case m.snet != nil:
		return m.snet.MessageLatency()
	}
	return nil
}

// Nodes returns the node models (empty in task-level mode).
func (m *Machine) Nodes() []*node.Node { return m.nodes }

// Streams returns how many trace streams the machine consumes: one per
// processor in detailed mode (the paper: each trace accounts for one
// processor or node), one per node in task-level mode.
func (m *Machine) Streams() int {
	if m.cfg.Mode == Detailed {
		return m.cfg.Nodes * m.cfg.Node.Hierarchy.CPUs
	}
	return m.cfg.Nodes
}

// attach wires one source per stream.
func (m *Machine) attach(srcs []trace.Source) error {
	if len(srcs) != m.Streams() {
		return fmt.Errorf("machine: %d trace streams for %d processors", len(srcs), m.Streams())
	}
	if m.cfg.Mode == Detailed {
		cpus := m.cfg.Node.Hierarchy.CPUs
		for i, src := range srcs {
			m.nodes[i/cpus].Run(i%cpus, src)
		}
		return nil
	}
	if m.cnet != nil {
		// Compact engine: the shared state machine consumes the streams
		// directly; attach in ascending node order so the first-fetch events
		// land in the same kernel order as process spawns would.
		for i, src := range srcs {
			m.cnet.Attach(i, src)
		}
		return nil
	}
	for i, src := range srcs {
		pr := network.NewProcessor(m.nodeIf(i), src)
		if m.col.Enabled() {
			i := i
			pr := pr
			pr.Observe(m.col, i)
			m.col.RegisterCPU(i, fmt.Sprintf("proc%d", i), func() analysis.CPUSample {
				return analysis.CPUSample{
					Compute:     pr.ComputeCycles(),
					CommBlocked: pr.CommCycles(),
				}
			})
		}
		pr.Spawn(m.streamKernel(i))
		m.procs = append(m.procs, pr)
	}
	return nil
}

// nodeIf returns node i's network interface on whichever fabric the machine
// was built with.
func (m *Machine) nodeIf(i int) *network.NodeIf {
	if m.snet != nil {
		return m.snet.Node(i)
	}
	return m.net.Node(i)
}

// streamKernel returns the kernel that hosts node i's processes: the shard
// kernel owning the node under the parallel engine, the machine kernel
// otherwise.
func (m *Machine) streamKernel(i int) *pearl.Kernel {
	if m.group != nil {
		return m.group.Kernel(m.part[i])
	}
	return m.k
}

// SetTaskSink attaches a task-trace writer to the given stream (detailed
// mode only): the node derives a task-level trace — compute durations
// between communication operations plus the communication operations — that
// can later drive a task-level machine (Fig. 2's hybrid path).
func (m *Machine) SetTaskSink(stream int, w io.Writer) error {
	if m.cfg.Mode != Detailed {
		return fmt.Errorf("machine: task sinks require detailed mode")
	}
	cpus := m.cfg.Node.Hierarchy.CPUs
	if stream < 0 || stream >= m.Streams() {
		return fmt.Errorf("machine: stream %d of %d", stream, m.Streams())
	}
	m.nodes[stream/cpus].SetTaskSink(stream%cpus, w)
	return nil
}

// FlushTaskSinks finalises all attached task-trace writers.
func (m *Machine) FlushTaskSinks() error {
	for _, nd := range m.nodes {
		if err := nd.FlushTaskSinks(); err != nil {
			return err
		}
	}
	return nil
}

// DeadlockError reports a simulation that stopped with suspended processes.
type DeadlockError struct {
	Blocked []string
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("machine: simulation deadlocked; blocked: %s", strings.Join(e.Blocked, ", "))
}

// Run drives the machine with one trace source per stream and simulates to
// completion, returning the measured result. A machine runs once: its
// kernels are closed behind the run, so that the processes that never end —
// DSM managers, store-buffer drains, whatever a deadlocked or panicking run
// leaves blocked — do not outlive it as coroutines pinning the whole model.
func (m *Machine) Run(srcs []trace.Source) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: already run; build a new machine for another run")
	}
	m.ran = true
	// Deferred, so that it follows checkDone and result — closing unwinds
	// process bodies, whose own deferred calls (a runner marking itself
	// done) must not mask a deadlock — and covers the panic path too.
	defer func() {
		for _, k := range m.kernels() {
			k.Close()
		}
	}()
	if err := m.attach(srcs); err != nil {
		return nil, err
	}
	start := time.Now()
	var cycles pearl.Time
	if m.group != nil {
		cycles = m.group.Run()
	} else {
		cycles = m.k.Run()
	}
	wall := time.Since(start)

	// Close fault accounting at the run's end: down-window spans are clipped
	// to the measured length before the timeline is flushed.
	m.inj.Finish(cycles)

	for _, nd := range m.nodes {
		if err := nd.Err(); err != nil {
			return nil, err
		}
	}
	for _, pr := range m.procs {
		if err := pr.Err(); err != nil {
			return nil, err
		}
	}
	if m.cnet != nil {
		if err := m.cnet.Err(); err != nil {
			return nil, err
		}
	}
	if err := m.checkDone(); err != nil {
		return nil, err
	}
	return m.result(cycles, wall), nil
}

// RunProgram starts an execution-driven, physical-time-interleaved program:
// one thread per processor.
func (m *Machine) RunProgram(prog *trace.Program) (*Result, error) {
	if prog.Threads != m.Streams() {
		return nil, fmt.Errorf("machine: program has %d threads, machine %d processors",
			prog.Threads, m.Streams())
	}
	threads := prog.Start()
	// Reap generator goroutines left parked by an aborted run (trace error,
	// deadlock); after a completed run this is a no-op.
	defer prog.Close()
	srcs := make([]trace.Source, len(threads))
	for i, th := range threads {
		srcs[i] = th
	}
	return m.Run(srcs)
}

// RunStochastic generates traces from the description and runs them. The
// description's level must match the machine's mode. A description with
// Nodes == 0 is sized to the machine, so one description file can drive a
// whole machine-size sweep.
func (m *Machine) RunStochastic(d stochastic.Desc) (*Result, error) {
	if (d.Level == stochastic.TaskLevel) != (m.cfg.Mode == TaskLevel) {
		return nil, fmt.Errorf("machine: %s description on %s machine", d.Level, m.cfg.Mode)
	}
	if d.Nodes == 0 {
		d.Nodes = m.Streams()
	}
	if d.Nodes != m.Streams() {
		return nil, fmt.Errorf("machine: description for %d nodes, machine has %d streams",
			d.Nodes, m.Streams())
	}
	srcs, err := stochastic.Sources(d)
	if err != nil {
		return nil, err
	}
	return m.Run(srcs)
}

func (m *Machine) checkDone() error {
	done := true
	for _, nd := range m.nodes {
		done = done && nd.Done()
	}
	for _, pr := range m.procs {
		done = done && pr.Done()
	}
	if m.cnet != nil {
		done = done && m.cnet.AllDone()
	}
	if done {
		return nil
	}
	var blocked []string
	for _, k := range m.kernels() {
		for _, p := range k.Blocked() {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.Name(), p.BlockReason()))
		}
	}
	if m.cnet != nil {
		blocked = append(blocked, m.cnet.Blocked()...)
	}
	return &DeadlockError{Blocked: blocked}
}

// kernels returns every kernel of the machine: the shard kernels under the
// parallel engine, the single kernel otherwise.
func (m *Machine) kernels() []*pearl.Kernel {
	if m.group == nil {
		return []*pearl.Kernel{m.k}
	}
	ks := make([]*pearl.Kernel, m.group.Shards())
	for i := range ks {
		ks[i] = m.group.Kernel(i)
	}
	return ks
}

// Result is the outcome of one simulation run.
type Result struct {
	// Cycles is the simulated execution time of the target machine.
	Cycles pearl.Time
	// Events is the number of kernel events processed.
	Events uint64
	// Wall is the host time the simulation took.
	Wall time.Duration
	// Instructions is the total abstract instructions executed (detailed
	// mode).
	Instructions uint64
	// Processors is the number of simulated processors.
	Processors int
	// Stats is the full metric tree.
	Stats *stats.Set
	// Analysis is the bottleneck report, or nil when the analyzer is off.
	Analysis *analysis.Report
}

func (m *Machine) result(cycles pearl.Time, wall time.Duration) *Result {
	r := &Result{
		Cycles:     cycles,
		Events:     m.events(),
		Wall:       wall,
		Processors: m.Streams(),
	}
	root := stats.NewSet("machine " + m.cfg.Name)
	root.PutInt("cycles", int64(cycles), "cyc")
	root.PutUint("events", r.Events, "")
	for _, nd := range m.nodes {
		for i := 0; i < nd.CPUs(); i++ {
			r.Instructions += nd.CPU(i).Instructions()
		}
		root.Subsets = append(root.Subsets, nd.Stats())
	}
	for _, pr := range m.procs {
		root.Subsets = append(root.Subsets, pr.Stats())
	}
	if m.cnet != nil {
		for i := 0; i < m.cnet.Nodes(); i++ {
			root.Subsets = append(root.Subsets, m.cnet.ProcStats(i))
		}
		root.Subsets = append(root.Subsets, m.cnet.Stats())
	}
	if m.net != nil {
		root.Subsets = append(root.Subsets, m.net.Stats())
	}
	if m.snet != nil {
		root.Subsets = append(root.Subsets, m.snet.Stats())
	}
	if m.dsm != nil {
		root.Subsets = append(root.Subsets, m.dsm.Stats())
	}
	root.PutUint("instructions", r.Instructions, "")
	if m.group != nil {
		if dump := m.mergedRegistryDump(); dump != nil {
			root.Subsets = append(root.Subsets, dump)
		}
	} else if reg := m.pb.Registry(); reg.Len() > 0 {
		// The flat registry dump: every registered metric under its stable
		// dotted name (node0.cache.l1d.misses, net.messages, ...).
		root.Subsets = append(root.Subsets, reg.Dump())
	}
	r.Stats = root
	r.Analysis = m.col.Analyze(cycles)
	return r
}

// CyclesPerSecond returns the simulation speed: simulated target cycles per
// host second.
func (r *Result) CyclesPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Cycles) / r.Wall.Seconds()
}

// SlowdownPerProcessor returns the paper's §6 metric: host cycles needed to
// simulate one cycle of one target processor, assuming the given host clock
// rate in Hz. (The paper quotes 750–4,000 for detailed mode and 0.5–4 for
// task-level mode on a 143 MHz UltraSPARC.)
func (r *Result) SlowdownPerProcessor(hostHz float64) float64 {
	if r.Cycles <= 0 || r.Processors <= 0 {
		return 0
	}
	hostCycles := hostHz * r.Wall.Seconds()
	return hostCycles / (float64(r.Cycles) * float64(r.Processors))
}
