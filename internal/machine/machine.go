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
	"reflect"
	"slices"
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

// ConfigVersion is the machine-configuration schema version, the only one
// ParseConfig reads. The unversioned schema and v1 lacked only fields v2
// has (the Faults block, the hierarchical topology families), so a file of
// either reads as v2 once it says "version": 2. An engine selector is gone:
// every machine runs on the one single-kernel engine (or on shards), so a
// file naming one is rejected as having an unknown field.
const ConfigVersion = 2

// Config describes a complete machine.
type Config struct {
	// Version is the configuration schema version, which a parsed file must
	// give as ConfigVersion.
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
	// engine, which gives the same report. The engine runs only an
	// unobserved, fault-free task-level machine with minimal routing and
	// store-and-forward or cut-through switching (see DESIGN.md §8).
	Shards int `json:"shards,omitempty"`
}

// Validate checks the configuration's cross-component consistency and makes
// it the effective configuration: every component's Validate writes its
// defaults in place of zero fields, so what is dumped, hashed and built is
// one value. A task-level machine runs no node model; its Node block, when
// given, is checked and filled all the same.
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
		// Sizing the topology is cheap; building the fabric is not. A node
		// count the topology disagrees with is caught here, before any
		// engine allocates per-node or per-link state.
		if c.Network.Topology.Kind == "" {
			return fmt.Errorf("machine: %d nodes but no topology", c.Nodes)
		}
		topo, err := topology.New(c.Network.Topology)
		if err != nil {
			return err
		}
		if topo.Nodes() != c.Nodes {
			return fmt.Errorf("machine: %d nodes but topology %s has %d", c.Nodes, topo.Name(), topo.Nodes())
		}
	}
	if c.Mode == Detailed || !reflect.ValueOf(c.Node).IsZero() {
		if err := c.Node.Hierarchy.Validate(); err != nil {
			return err
		}
		if err := c.Node.Timing.Validate(); err != nil {
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
	if !c.Faults.Empty() && !c.hasNetwork() {
		return fmt.Errorf("machine: fault injection requires a networked (multi-node) machine")
	}
	if c.Faults != nil {
		// Copies of a configuration share the schedule, so its defaults go
		// into a copy of it, made only when a default was missing.
		f := *c.Faults
		if err := f.Validate(c.Nodes); err != nil {
			return err
		}
		if f.Retrans != c.Faults.Retrans {
			c.Faults = &f
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("machine: %d shards", c.Shards)
	}
	if c.Shards > 0 {
		const single = "; the single kernel (shards 0) gives the same report"
		switch {
		case c.Mode != TaskLevel:
			return fmt.Errorf("machine: the parallel engine runs task-level machines only%s", single)
		case !c.Faults.Empty():
			return fmt.Errorf("machine: fault schedules are not supported with shards%s", single)
		}
	}
	return nil
}

func (c *Config) hasNetwork() bool { return c.Nodes > 1 }

// ParseConfig decodes a machine configuration from JSON. Anything but
// whitespace after the JSON document is an error: a truncated or
// concatenated configuration must not silently half-parse. A file of any
// schema version but ConfigVersion is refused.
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
	cfg.Faults.Normalize()
	switch {
	case cfg.Version < ConfigVersion:
		return Config{}, fmt.Errorf(`machine: config version %d is no longer read; set "version": %d (every field of versions 0 and 1 reads the same in it)`,
			cfg.Version, ConfigVersion)
	case cfg.Version > ConfigVersion:
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
	net   *network.Network // the single-kernel fabric; nil without a network or with shards
	nodes []*node.Node
	dsm   *dsm.Layer
	inj   *fault.Injector // nil without faults
	col   *analysis.Collector
	ran   bool // one run per machine
	// sampling is set once StartSampler has armed the run's sampling chain.
	sampling bool

	// Parallel-engine state (nil when cfg.Shards == 0): the shard group and
	// the sharded fabric. k then aliases shard 0's kernel and net stays nil.
	group *pearl.ShardGroup
	snet  *network.ShardedNetwork
}

// New builds the machine in a fresh environment seeded from the
// configuration, without instrumentation. To attach a probe or share a
// kernel, build the environment yourself and use Build.
func New(cfg Config) (*Machine, error) {
	return Build(sim.NewEnv(cfg.Seed, nil), cfg)
}

// Build assembles the machine in the given environment. env.Kernel hosts
// every component; env.RNG (normally seeded with cfg.Seed) is the root of
// all component random streams; env.Probe, when it carries a timeline, has
// every component emit span events into it.
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
	if m.col.Enabled() {
		cpusPerNode := 1
		if cfg.Mode == Detailed {
			cpusPerNode = cfg.Node.Hierarchy.CPUs
		}
		m.col.SetMachine(cfg.Name, cpusPerNode, k)
	}
	if cfg.hasNetwork() {
		net, err := network.New(env, cfg.Network)
		if err != nil {
			return nil, err
		}
		m.net = net
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
		// Built last so that with an empty schedule the timeline is
		// bit-identical to a build without the subsystem.
		inj, err := fault.NewInjector(k, m.net.Topology(), *cfg.Faults, env.RNG, env.Probe)
		if err != nil {
			return nil, err
		}
		m.inj = inj
		m.net.AttachFaults(inj)
	}
	return m, nil
}

// DSM returns the virtual-shared-memory layer, or nil.
func (m *Machine) DSM() *dsm.Layer { return m.dsm }

// ShardGroup returns the parallel engine's shard group, or nil when the
// machine runs single-kernel (cfg.Shards == 0). Callers use it to attach
// host-side telemetry (pearl.ShardGroup.EnableTelemetry); host observation
// never affects simulated results.
func (m *Machine) ShardGroup() *pearl.ShardGroup { return m.group }

// Network returns the traffic ledger of the machine's communication model,
// whichever engine runs it — the single kernel's, or the merge across shards
// — or nil for single-node machines.
func (m *Machine) Network() *network.Traffic {
	switch {
	case m.snet != nil:
		return m.snet.Traffic()
	case m.net != nil:
		return &m.net.Traffic
	}
	return nil
}

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
	// Task-level mode: each node's abstract processor consumes its stream,
	// started in ascending node order so that the first fetches land in
	// node order on every kernel.
	for i, src := range srcs {
		m.processor(i).Start(src)
	}
	return nil
}

// processor returns node i's abstract processor on whichever fabric the
// machine was built with.
func (m *Machine) processor(i int) *network.Processor {
	if m.snet != nil {
		return m.snet.Processor(i)
	}
	return m.net.Processor(i)
}

// processors yields the abstract processors of a task-level machine in node
// order — every one of them started once the machine runs — and nothing in
// detailed mode.
func (m *Machine) processors(yield func(*network.Processor) bool) {
	if m.cfg.Mode != TaskLevel {
		return
	}
	for i := 0; i < m.cfg.Nodes; i++ {
		if !yield(m.processor(i)) {
			return
		}
	}
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

// deadlockError reports a simulation that stopped with components still
// waiting: CPUs, processors or packets that no pending event will resume.
type deadlockError struct {
	Blocked []string
}

// Error implements error.
func (e *deadlockError) Error() string {
	return fmt.Sprintf("machine: simulation deadlocked; blocked: %s", strings.Join(e.Blocked, ", "))
}

// Run drives the machine with one trace source per stream and simulates to
// completion, returning the measured result. A machine runs once.
func (m *Machine) Run(srcs []trace.Source) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: already run; build a new machine for another run")
	}
	m.ran = true
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
	for pr := range m.processors {
		if err := pr.Err(); err != nil {
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
	srcs, err := m.programSources(prog)
	if err != nil {
		return nil, err
	}
	// Unwind generator threads left suspended by an aborted run (trace
	// error, deadlock); after a completed run this is a no-op.
	defer prog.Close()
	return m.Run(srcs)
}

// programSources checks prog against the machine and starts its threads,
// one stream per processor.
func (m *Machine) programSources(prog *trace.Program) ([]trace.Source, error) {
	if prog.Threads != m.Streams() {
		return nil, fmt.Errorf("machine: program has %d threads, machine %d processors",
			prog.Threads, m.Streams())
	}
	threads := prog.Start()
	srcs := make([]trace.Source, len(threads))
	for i, th := range threads {
		srcs[i] = th
	}
	return srcs, nil
}

// RunStochastic generates traces from the description and runs them. The
// description's level must match the machine's mode. A description with
// Nodes == 0 is sized to the machine, so one description file can drive a
// whole machine-size sweep.
func (m *Machine) RunStochastic(d stochastic.Desc) (*Result, error) {
	srcs, err := m.stochasticSources(d)
	if err != nil {
		return nil, err
	}
	return m.Run(srcs)
}

// stochasticSources checks d against the machine, sizing it if need be, and
// generates its traces.
func (m *Machine) stochasticSources(d stochastic.Desc) ([]trace.Source, error) {
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
	return stochastic.Sources(d)
}

// checkDone reports a deadlock when a CPU runner or an abstract processor has
// not finished its stream, listing those and the packets queued for a link.
// DSM managers wait for requests by design and are never listed.
func (m *Machine) checkDone() error {
	var blocked []string
	for _, nd := range m.nodes {
		blocked = append(blocked, nd.Blocked()...)
	}
	for pr := range m.processors {
		if b := pr.Blocked(); b != "" {
			blocked = append(blocked, b)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	if m.net != nil {
		blocked = append(blocked, m.net.Blocked()...)
	}
	return &deadlockError{Blocked: blocked}
}

// events returns the run's event count: under the parallel engine, the sum
// of the shard kernels' counts.
func (m *Machine) events() uint64 {
	if m.group == nil {
		return m.k.EventCount()
	}
	var total uint64
	for i := 0; i < m.group.Shards(); i++ {
		total += m.group.Kernel(i).EventCount()
	}
	return total
}

// MergedTimeline returns the timeline to export, nil when the machine was
// built without timeline tracing. Only the single kernel records one: the
// parallel engine refuses probes.
func (m *Machine) MergedTimeline() *probe.Timeline { return m.pb.Timeline() }

// Result is the outcome of one simulation run.
type Result struct {
	// Cycles is the simulated execution time of the target machine.
	Cycles pearl.Time
	// Events is the number of kernel events processed. A hold that a
	// private node's runner ran ahead of counts as the event it replaced, so
	// the count is the per-event path's (pearl.Chain.Ahead).
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
	return &Result{
		Cycles:       cycles,
		Events:       m.events(),
		Wall:         wall,
		Instructions: m.instructions(),
		Processors:   m.Streams(),
		Stats:        m.report(cycles),
		Analysis:     m.col.Analyze(cycles),
	}
}

// instructions returns the abstract instructions the detailed CPUs have
// executed so far.
func (m *Machine) instructions() uint64 {
	var n uint64
	for _, nd := range m.nodes {
		for i := 0; i < nd.CPUs(); i++ {
			n += nd.CPU(i).Instructions()
		}
	}
	return n
}

// report builds the run's metric tree as it stands at virtual time now: the
// tree Result.Stats holds at the end of the run, and what a sampler tick
// builds for the consumers that ask. Building it changes no model state —
// link and resource utilisations fold their busy time exactly up to the
// present — so a report taken mid-run leaves the run where it was.
func (m *Machine) report(now pearl.Time) *stats.Set {
	root := stats.NewSet("machine " + m.cfg.Name)
	root.PutInt("cycles", int64(now), "cyc")
	root.PutUint("events", m.events(), "")
	for _, nd := range m.nodes {
		root.Subsets = append(root.Subsets, nd.Stats())
	}
	if m.cfg.Mode == TaskLevel {
		root.Subsets = append(root.Subsets, network.ProcessorStats(m.cfg.Nodes, m.processor)...)
	}
	if t := m.Network(); t != nil {
		root.Subsets = append(root.Subsets, t.Stats())
	}
	if m.inj != nil {
		root.Subsets = append(root.Subsets, m.inj.Stats(now))
	}
	if m.dsm != nil {
		root.Subsets = append(root.Subsets, m.dsm.Stats())
	}
	root.PutUint("instructions", m.instructions(), "")
	return root
}

// StartSampler arms the run's one sampling chain — a daemon event at every,
// 2·every, … that hands each consumer the tick's virtual time, event count
// and a builder of the run's report as it stands — and returns the function
// that hands them the end-of-run report: call it once after the run with the
// run's result, whose Stats is that report. However many consumers observe a
// run (a CSV history, a live scope, a sparkline view), they share this
// chain, and a tick builds its report only when a consumer asks for it, and
// then once for all of them; they must not modify it. With no consumer at
// all no chain is armed; a nil consumer, or a second StartSampler on the
// machine, is an error.
//
// Daemon events fire in (time, sequence) order while model work remains but
// neither keep a run alive nor move its clock, and building a report only
// reads, so a sampled run ends at the same cycle with the same statistics
// as an unsampled one. A tick bounds the straight lines private nodes run
// ahead (pearl.Chain.Ahead), so it reads what the per-event path would. The
// one thing sampling changes is the kernel's event count: plus one per tick
// fired, whether or not a consumer asked for the tick's report.
func (m *Machine) StartSampler(every pearl.Time, consumers ...func(analysis.Tick)) (finish func(*Result), err error) {
	switch {
	case every <= 0:
		return nil, fmt.Errorf("machine: sampling interval %d", every)
	case len(consumers) == 0:
		return func(*Result) {}, nil // nothing to sample: no chain, no ticks
	case slices.ContainsFunc(consumers, func(c func(analysis.Tick)) bool { return c == nil }):
		return nil, fmt.Errorf("machine: nil sampler consumer")
	case m.group != nil:
		return nil, fmt.Errorf("machine: live sampling is not supported with shards; the single kernel (shards 0) gives the same report")
	case m.sampling:
		return nil, fmt.Errorf("machine: sampler already started")
	}
	m.sampling = true
	sample := func(t analysis.Tick) {
		for _, c := range consumers {
			c(t)
		}
	}
	k := m.k
	var report *stats.Set // the current tick's, once a consumer asked for it
	build := func() *stats.Set {
		if report == nil {
			report = m.report(k.Now())
		}
		return report
	}
	var tick func()
	tick = func() {
		sample(analysis.Tick{At: k.Now(), Events: m.events(), Report: build})
		report = nil
		k.AtDaemon(k.Now()+every, tick)
	}
	k.AtDaemon(k.Now()+every, tick)
	return func(res *Result) {
		sample(analysis.Tick{At: res.Cycles, Events: res.Events, Final: true, Report: func() *stats.Set { return res.Stats }})
	}, nil
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
