// Package node assembles the single-node computational model of the
// workbench (Fig. 3a): CPUs executing abstract machine instructions against
// the node's cache hierarchy, bus and memory. Communication operations are
// not simulated here — they are forwarded to the communication model
// (Fig. 2), and the node measures the simulated time between two consecutive
// communication operations to construct the computational tasks that drive
// the task-level model (optionally exporting them as a task-level trace).
package node

import (
	"fmt"
	"io"

	"mermaid/internal/analysis"
	"mermaid/internal/cache"
	"mermaid/internal/cpu"
	"mermaid/internal/dsm"
	"mermaid/internal/network"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/trace"
)

// Config parameterises one node: its memory system and the CPU timing table.
type Config struct {
	Hierarchy cache.HierarchyConfig
	Timing    cpu.Timing
}

// Params is the per-node construction parameter block: everything New needs
// beyond the shared sim.Env.
type Params struct {
	// ID is the node's machine-wide id; it also selects the node's private
	// random substream, derived from the environment's root stream.
	ID int
	// Cfg parameterises the node's CPUs and memory system.
	Cfg Config
	// NIF is the node's network endpoint, or nil when the node is not part
	// of a message-passing machine (pure shared-memory simulation, §4.3).
	NIF *network.NodeIf
}

// Node is one MIMD node: CPUs plus memory hierarchy, optionally attached to
// a network endpoint for message passing.
type Node struct {
	id     int
	k      *pearl.Kernel
	hier   *cache.Hierarchy
	cpus   []*cpu.CPU
	nif    *network.NodeIf // nil for a pure shared-memory node
	shared *dsm.Layer      // nil when no virtual shared memory is configured

	taskSinks []*ops.Writer
	lastComm  []pearl.Time
	taskCount []uint64

	runners []*runner

	// Timeline instrumentation (nil when no probe is attached): one task
	// track per CPU carrying compute bursts and communication operations.
	tl        *probe.Timeline
	cpuTracks []probe.Track

	// Bottleneck-analysis feed (nil collector when the analyzer is off):
	// per-CPU communication and DSM-fault time, plus compute/comm spans.
	col        *analysis.Collector
	cpuBase    int // machine-wide index of the node's CPU 0
	commCycles []pearl.Time
	dsmStall   []pearl.Time

	// declineStraight is set only by tests: every operation then goes through
	// exec and blocks the process in a chain of its own, the reference the
	// one long chain is checked against.
	declineStraight bool
}

type runner struct {
	proc *pearl.Process
	err  error
	done bool
}

// New builds a node in the given environment. env.Probe may be nil (no
// instrumentation); with a probe attached the node registers its CPU metrics
// and emits compute-burst and communication spans per CPU. The node draws
// randomness from a private substream derived from env.RNG by its ID, so
// node construction order never perturbs another node's draws.
func New(env sim.Env, prm Params) (*Node, error) {
	k, cfg := env.Kernel, prm.Cfg
	if k == nil {
		return nil, fmt.Errorf("node %d: nil kernel in environment", prm.ID)
	}
	name := fmt.Sprintf("node%d", prm.ID)
	hier, err := cache.NewHierarchy(env.WithRNG(env.DeriveRNG(uint64(prm.ID))), name, cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:         prm.ID,
		k:          k,
		hier:       hier,
		nif:        prm.NIF,
		taskSinks:  make([]*ops.Writer, cfg.Hierarchy.CPUs),
		lastComm:   make([]pearl.Time, cfg.Hierarchy.CPUs),
		taskCount:  make([]uint64, cfg.Hierarchy.CPUs),
		col:        env.Collect,
		cpuBase:    prm.ID * cfg.Hierarchy.CPUs,
		commCycles: make([]pearl.Time, cfg.Hierarchy.CPUs),
		dsmStall:   make([]pearl.Time, cfg.Hierarchy.CPUs),
	}
	reg := env.Registry()
	tl := env.Timeline()
	if tl != nil {
		n.tl = tl
		n.cpuTracks = make([]probe.Track, cfg.Hierarchy.CPUs)
	}
	for i := 0; i < cfg.Hierarchy.CPUs; i++ {
		i := i
		c := cpu.New(i, cfg.Timing, hier.Port(i))
		n.cpus = append(n.cpus, c)
		cpuName := fmt.Sprintf("%s.cpu%d", name, i)
		reg.Gauge(cpuName+".instructions", "", func() float64 { return float64(c.Instructions()) })
		reg.Gauge(cpuName+".busy", "cyc", func() float64 { return float64(c.BusyCycles()) })
		n.col.RegisterCPU(n.cpuBase+i, cpuName, func() analysis.CPUSample {
			return analysis.CPUSample{
				Compute:     c.BusyCycles() - c.MemStallCycles(),
				MemStall:    c.MemStallCycles() + n.dsmStall[i],
				CommBlocked: n.commCycles[i],
			}
		})
		if tl != nil {
			n.cpuTracks[i] = tl.Track(cpuName + ".tasks")
		}
	}
	return n, nil
}

// AttachDSM connects the node to a virtual-shared-memory layer: loads and
// stores whose address falls in the shared segment transparently obtain page
// rights through the DSM protocol before accessing the local hierarchy —
// hiding all explicit communication from the application (§5).
func (n *Node) AttachDSM(layer *dsm.Layer) {
	n.shared = layer
	layer.AttachCaches(n.id, n.hier)
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// CPUs returns the number of processors on the node.
func (n *Node) CPUs() int { return len(n.cpus) }

// CPU returns the i-th processor model.
func (n *Node) CPU(i int) *cpu.CPU { return n.cpus[i] }

// Hierarchy returns the node's memory system.
func (n *Node) Hierarchy() *cache.Hierarchy { return n.hier }

// SetTaskSink attaches a writer that receives the task-level trace derived
// from CPU cpuIdx's instruction-level execution: compute(duration) events
// between communication operations, plus the communication operations
// themselves. This is how the hybrid model of Fig. 2 exports workloads for
// later fast-prototyping runs.
func (n *Node) SetTaskSink(cpuIdx int, w io.Writer) {
	n.taskSinks[cpuIdx] = ops.NewWriter(w)
}

// FlushTaskSinks finalises all task trace writers.
func (n *Node) FlushTaskSinks() error {
	for _, w := range n.taskSinks {
		if w != nil {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run spawns a simulation process executing the operation stream src on CPU
// cpuIdx — one stream per CPU. Communication operations are forwarded to the
// node's network interface; if the node has none, they are an error.
func (n *Node) Run(cpuIdx int, src trace.Source) {
	r := &runner{}
	n.runners = append(n.runners, r)
	c := n.cpus[cpuIdx]
	// Pull through a cursor: batched sources (generator threads, trace
	// replays) hand over operations many at a time, so the per-operation
	// cost in this loop is a slice index, not a channel transfer.
	cur := trace.NewCursor(src)
	procName := fmt.Sprintf("node%d.cpu%d", n.id, cpuIdx)
	straight := n.straightLine(c, cur)
	r.proc = n.k.Spawn(procName, func(p *pearl.Process) {
		defer func() { r.done = true }()
		for {
			// Computation, memory hierarchy included, runs as a stackless
			// chain of holds and resource waits; the chain ends at the first
			// operation that needs a process to block in (or at the end of
			// the stream).
			p.HoldWhile(straight)
			ev, err := cur.Next()
			if err == io.EOF {
				n.emitTask(p, cpuIdx, nil)
				return
			}
			if err != nil {
				r.err = err
				return
			}
			if err := n.exec(p, c, cpuIdx, ev); err != nil {
				r.err = err
				return
			}
		}
	})
	// Opt the runner into kernel block-span tracing: time spent blocked in
	// holds, receives and resource queues shows up on its own track.
	n.tl.TrackProcess(r.proc, procName)
}

// straightLine returns the pearl.Process.HoldWhile step that executes the
// stream at cur for as long as its operations are computational: each call
// lets the operation in flight proceed and, when that retires, begins the
// next. The chain ends — leaving the operation at the cursor for exec — at
// the first communication or compute operation, at a load or store to the
// shared segment of a virtual-shared-memory layer (exec obtains page rights
// first, which may block in the network), and at the end of the stream.
func (n *Node) straightLine(c *cpu.CPU, cur *trace.Cursor) func() pearl.Step {
	inFlight := false // an operation begun by an earlier call has Steps left
	return func() pearl.Step {
		for {
			if inFlight {
				if s := c.Step(); !s.Done {
					return s
				}
				inFlight = false
			}
			if n.declineStraight {
				break
			}
			ev, err := cur.Peek()
			if err != nil {
				break
			}
			if n.needsPageRights(ev.Op) || !c.Begin(ev.Op) {
				break
			}
			cur.Advance()
			inFlight = true
		}
		return pearl.Step{Done: true}
	}
}

// needsPageRights reports whether the operation is a load or store to the
// node's virtual shared memory.
func (n *Node) needsPageRights(o ops.Op) bool {
	return n.shared != nil && o.Kind.IsMemoryAccess() && n.shared.InRange(o.Addr)
}

func (n *Node) exec(p *pearl.Process, c *cpu.CPU, cpuIdx int, ev trace.Event) error {
	o := ev.Op
	if o.Kind.IsComputational() {
		if n.needsPageRights(o) {
			// Virtual shared memory: obtain page rights first (may fault
			// through the network), then perform the local access.
			write := o.Kind == ops.Store
			ensureStart := p.Now()
			n.shared.Ensure(p, n.id, write, o.Addr)
			if last := o.Addr + o.Mem.Size() - 1; n.shared.InRange(last) {
				n.shared.Ensure(p, n.id, write, last) // page-straddling access
			}
			n.dsmStall[cpuIdx] += p.Now() - ensureStart
		}
		return c.Exec(p, o)
	}
	if o.Kind == ops.Compute {
		// Mixed-abstraction traces are permitted: a compute event simply
		// advances time.
		if o.Dur > 0 {
			p.Hold(pearl.Time(o.Dur))
		}
		return nil
	}
	// Communication operation: close the current computational task and
	// dispatch to the communication model.
	n.emitTask(p, cpuIdx, &o)
	if n.nif == nil {
		return fmt.Errorf("node %d: %s without a network attached (shared-memory node)", n.id, o.Kind)
	}
	commStart := p.Now()
	resume := func(fb trace.Feedback) {
		if ev.Resume != nil {
			ev.Resume <- fb
		}
	}
	gcpu := n.cpuBase + cpuIdx
	switch o.Kind {
	case ops.Send:
		n.nif.Send(p, int(o.Peer), o.Size, o.Tag, ev.Payload, true)
		resume(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
		n.col.Send(gcpu, o.Peer, "send", commStart, p.Now())
	case ops.ASend:
		n.nif.Send(p, int(o.Peer), o.Size, o.Tag, ev.Payload, false)
		resume(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
		n.col.Send(gcpu, o.Peer, "asend", commStart, p.Now())
	case ops.Recv:
		m := n.nif.Recv(p, o.Peer, o.Tag)
		resume(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		n.col.Recv(gcpu, int32(m.Src), "recv", commStart, p.Now())
	case ops.ARecv:
		n.nif.PostRecv(p, o.Peer, o.Tag, o.Addr)
		resume(trace.Feedback{Peer: o.Peer, Tag: o.Tag})
	case ops.WaitRecv:
		m := n.nif.WaitRecv(p, o.Addr)
		resume(trace.Feedback{Peer: int32(m.Src), Tag: m.Tag, Payload: m.Payload})
		n.col.Recv(gcpu, int32(m.Src), "waitrecv", commStart, p.Now())
	default:
		return fmt.Errorf("node %d: unsupported operation %s", n.id, o.Kind)
	}
	if n.tl != nil {
		n.tl.Span(n.cpuTracks[cpuIdx], o.Kind.String(), commStart, p.Now())
	}
	n.commCycles[cpuIdx] += p.Now() - commStart
	n.lastComm[cpuIdx] = p.Now()
	return nil
}

// emitTask writes the computational task that ended now (the time since the
// previous communication operation) and, if given, the communication
// operation that ended it, to the CPU's task sink.
func (n *Node) emitTask(p *pearl.Process, cpuIdx int, comm *ops.Op) {
	elapsed := p.Now() - n.lastComm[cpuIdx]
	n.taskCount[cpuIdx]++
	if n.tl != nil && elapsed > 0 {
		// The compute burst between two communication operations — the same
		// interval the task-level trace derivation records (Fig. 2).
		n.tl.Span(n.cpuTracks[cpuIdx], "compute", n.lastComm[cpuIdx], p.Now())
	}
	n.col.Compute(n.cpuBase+cpuIdx, n.lastComm[cpuIdx], p.Now())
	w := n.taskSinks[cpuIdx]
	if w == nil {
		return
	}
	if elapsed > 0 {
		if err := w.Write(ops.NewCompute(int64(elapsed))); err != nil {
			return
		}
	}
	if comm != nil {
		_ = w.Write(*comm)
	}
}

// Err returns the first execution error across the node's CPU runners.
func (n *Node) Err() error {
	for _, r := range n.runners {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// Done reports whether all spawned runners have finished their traces.
func (n *Node) Done() bool {
	for _, r := range n.runners {
		if !r.done {
			return false
		}
	}
	return true
}

// Tasks returns how many computational tasks CPU cpuIdx produced (the task
// extraction of Fig. 2).
func (n *Node) Tasks(cpuIdx int) uint64 { return n.taskCount[cpuIdx] }

// Stats reports the node's CPU and memory system metrics.
func (n *Node) Stats() *stats.Set {
	s := stats.NewSet(fmt.Sprintf("node%d", n.id))
	var instrs uint64
	for _, c := range n.cpus {
		instrs += c.Instructions()
		s.Subsets = append(s.Subsets, c.Stats())
	}
	s.PutUint("instructions", instrs, "")
	s.Subsets = append(s.Subsets, n.hier.StatsSet())
	if n.nif != nil {
		s.Subsets = append(s.Subsets, n.nif.Stats())
	}
	return s
}
