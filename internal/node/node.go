// Package node assembles the single-node computational model of the
// workbench (Fig. 3a): CPUs executing abstract machine instructions against
// the node's cache hierarchy, bus and memory. Communication operations are
// not simulated here — they are forwarded to the communication model
// (Fig. 2), and the node measures the simulated time between two consecutive
// communication operations to construct the computational tasks that drive
// the task-level model (optionally exporting them as a task-level trace).
//
// Each CPU's stream runs on a runner, a pearl.Chain whose step function is a
// state machine over cpu.CPU.Begin/Step, dsm.Layer.Ensure and network.Comm —
// the resumable call the task-level network.Processor makes too — and whose
// waits are block spans on the CPU's timeline track and in the collector.
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

	runners []*runner

	// Timeline instrumentation (nil when no probe is attached): one task
	// track per CPU carrying compute bursts and communication operations,
	// named by operation kind, and the runners' block spans, named by reason
	// (Name+1, 0 until a runner first waits for it).
	tl          *probe.Timeline
	cpuTracks   []probe.Track
	kindNames   [ops.NumKinds + 1]probe.Name
	reasonNames []probe.Name

	// Bottleneck-analysis feed (nil collector when the analyzer is off):
	// per-CPU communication and DSM-fault time, plus compute/comm spans.
	col        *analysis.Collector
	cpuBase    int // machine-wide index of the node's CPU 0
	commCycles []pearl.Time
	dsmStall   []pearl.Time
}

// New builds a node in the given environment from its configuration,
// validated and its defaults filled as a machine's Validate does. env.Probe
// may be nil (no instrumentation); with a timeline attached the node emits
// compute-burst and communication spans per CPU.
// The node draws randomness from a private substream derived from env.RNG by
// its ID, so node construction order never perturbs another node's draws.
func New(env sim.Env, prm Params) (*Node, error) {
	k, cfg := env.Kernel, prm.Cfg
	if k == nil {
		return nil, fmt.Errorf("node %d: nil kernel in environment", prm.ID)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
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
		col:        env.Collect,
		cpuBase:    prm.ID * cfg.Hierarchy.CPUs,
		commCycles: make([]pearl.Time, cfg.Hierarchy.CPUs),
		dsmStall:   make([]pearl.Time, cfg.Hierarchy.CPUs),
	}
	tl := env.Timeline()
	if tl != nil {
		n.tl = tl
		n.cpuTracks = make([]probe.Track, cfg.Hierarchy.CPUs)
		for kind := range n.kindNames {
			n.kindNames[kind] = tl.Name(ops.Kind(kind).String())
		}
	}
	for i := 0; i < cfg.Hierarchy.CPUs; i++ {
		i := i
		c := cpu.New(i, cfg.Timing, hier.Port(i))
		n.cpus = append(n.cpus, c)
		cpuName := fmt.Sprintf("%s.cpu%d", name, i)
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

// CPUs returns the number of processors on the node.
func (n *Node) CPUs() int { return len(n.cpus) }

// CPU returns the i-th processor model.
func (n *Node) CPU(i int) *cpu.CPU { return n.cpus[i] }

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

// runner executes one CPU's operation stream: a chain whose step function
// carries the stream from one wait to the next.
type runner struct {
	n     *Node
	cpu   int // index within the node
	c     *cpu.CPU
	cur   *trace.Cursor
	chain pearl.Chain

	phase    uint8
	inFlight bool        // an operation begun by CPU.Begin has Steps left
	private  bool        // the straight line may run ahead of the kernel
	ev       trace.Event // the operation fetched for exec
	start    pearl.Time  // when it began
	fault    dsm.Fault   // a page fault in progress
	comm     network.Comm

	err  error
	done bool
}

// Runner phases: what the operation in flight is waiting on.
const (
	rnStraight uint8 = iota // computational operations (CPU.Step)
	rnFault                 // the page rights of a shared access's first byte
	rnFaultEnd              // ... and of its last, when it straddles a page
	rnCompute               // a task-level compute operation, to hold for
	rnComm                  // a communication operation
)

// Run starts executing the operation stream src on CPU cpuIdx — one stream
// per CPU — with one zero-delay event at the current time. Communication
// operations are forwarded to the node's network interface; if the node has
// none, they are an error.
func (n *Node) Run(cpuIdx int, src trace.Source) {
	// Pull through a cursor: batched sources (generator threads, trace
	// replays) hand over operations many at a time, so the per-operation
	// cost in this loop is a slice index, not a coroutine switch.
	r := &runner{n: n, cpu: cpuIdx, c: n.cpus[cpuIdx], cur: trace.NewCursor(src), private: n.private()}
	n.runners = append(n.runners, r)
	r.chain.Init(n.k, r.step)
	if n.tl != nil || n.col.Enabled() {
		// The runner's waits — holds, awaits, resource queues — show up on a
		// track of its own, one span per run of back-to-back waits for one
		// reason, and each in the collector's table of blocked time.
		track := n.tl.Track(fmt.Sprintf("node%d.cpu%d", n.id, cpuIdx))
		open := -1 // the track's last span
		r.chain.Spans = func(from, to pearl.Time, reason pearl.Reason) {
			if n.tl != nil {
				n.tl.ExtendSpan(&open, track, n.reasonName(reason), from, to)
			}
			n.col.BlockSpan(from, to, reason)
		}
	}
	r.chain.Start()
}

// runAhead lets private nodes run their straight lines ahead of the kernel;
// tests turn it off to compare with the per-event path.
var runAhead = true

// private reports whether the node's straight lines depend on nothing
// outside the node, so that a runner may serve their waits without the
// kernel (pearl.Chain.Ahead): one CPU, whose memory system runs nothing of
// its own, and no virtual shared memory. Observers do not matter: the
// runner reports the waits it serves ahead as the kernel would, and every
// timeline track the line writes is the node's own.
func (n *Node) private() bool {
	return runAhead && n.hier.Private() && n.shared == nil
}

// reasonName returns the timeline Name of a block reason, interning its text
// the first time one of the node's runners waits for it.
func (n *Node) reasonName(r pearl.Reason) probe.Name {
	if int(r) >= len(n.reasonNames) {
		n.reasonNames = append(n.reasonNames, make([]probe.Name, int(r)+1-len(n.reasonNames))...)
	}
	if n.reasonNames[r] == 0 {
		n.reasonNames[r] = n.tl.Name(n.k.ReasonText(r)) + 1
	}
	return n.reasonNames[r] - 1
}

// step is the runner's step function. The straight line — computational
// operations, one CPU.Begin after the other, each Stepped through its holds
// and resource waits — comes first: it is nearly all of a run. It ends at the
// first operation the CPU does not take — a task-level compute operation, a
// load or store to the virtual shared memory, a communication — which exec
// starts, and at the end of the stream. A private node's runner serves the
// straight line's waits itself, the kernel's clock running ahead, and where
// the line ends it rejoins the kernel with one hold to the time it reached:
// the operation that ended it is peeked again then, and acted on at its
// proper time.
func (r *runner) step() pearl.Step {
	n := r.n
	for {
		switch r.phase {
		case rnStraight:
			for r.inFlight {
				s := r.c.Step()
				if s.Done {
					r.inFlight = false
				} else if !r.private {
					return s
				} else if !r.chain.Ahead(s) {
					if j, ok := n.k.Rejoin(); ok {
						return j // s ended the line at the kernel's horizon
					}
					return s
				}
			}
			if o, err := r.cur.Peek(); err == nil && !n.needsPageRights(*o) && r.c.Begin(*o) {
				r.cur.Advance()
				r.inFlight = true
				continue
			}
			if s, ok := n.k.Rejoin(); ok {
				return s
			}
			ev, err := r.cur.Next()
			if err == io.EOF {
				n.emitTask(r.cpu, nil)
				r.done = true
				return pearl.Step{Done: true}
			}
			if err == nil {
				r.ev = ev
				err = r.exec()
			}
			if err != nil {
				r.err, r.done = err, true
				return pearl.Step{Done: true}
			}
		case rnFault, rnFaultEnd:
			o := &r.ev.Op
			addr := o.Addr
			if r.phase == rnFaultEnd {
				addr += o.Mem.Size() - 1
			}
			if s := n.shared.Ensure(n.id, o.Kind == ops.Store, addr, &r.fault); !s.Done {
				return s
			}
			if last := o.Addr + o.Mem.Size() - 1; r.phase == rnFault && n.shared.InRange(last) {
				r.phase = rnFaultEnd // page-straddling access
				continue
			}
			n.dsmStall[r.cpu] += n.k.Now() - r.start
			r.c.Begin(*o)
			r.inFlight = true
			r.phase = rnStraight
		case rnCompute:
			r.phase = rnStraight
			return pearl.Step{Hold: pearl.Time(r.ev.Op.Dur)}
		case rnComm:
			if s := r.comm.Step(); !s.Done {
				return s
			}
			r.endComm()
			r.phase = rnStraight
		}
	}
}

// needsPageRights reports whether the operation is a load or store to the
// node's virtual shared memory.
func (n *Node) needsPageRights(o ops.Op) bool {
	return n.shared != nil && o.Kind.IsMemoryAccess() && n.shared.InRange(o.Addr)
}

// exec starts the operation that ended the straight line, setting the phase
// that completes it.
func (r *runner) exec() error {
	n, o := r.n, r.ev.Op
	r.start = n.k.Now()
	switch {
	case o.Kind.IsComputational():
		// Virtual shared memory: obtain page rights first (may fault through
		// the network), then perform the local access.
		r.phase = rnFault
		return nil
	case o.Kind == ops.Compute:
		// Mixed-abstraction traces are permitted: a compute event simply
		// advances time.
		if o.Dur > 0 {
			r.phase = rnCompute
		}
		return nil
	}
	// Communication operation: close the current computational task and
	// dispatch to the communication model.
	n.emitTask(r.cpu, &o)
	if n.nif == nil {
		return fmt.Errorf("node %d: %s without a network attached (shared-memory node)", n.id, o.Kind)
	}
	if !o.Kind.IsCommunication() {
		return fmt.Errorf("node %d: unsupported operation %s", n.id, o.Kind)
	}
	if err := r.comm.Begin(n.nif, o, r.ev.Payload); err != nil {
		return fmt.Errorf("node %d cpu %d (rank %d): %w", n.id, r.cpu, n.cpuBase+r.cpu, err)
	}
	r.phase = rnComm
	return nil
}

// endComm closes the communication operation in flight: feedback, spans,
// and the start of the next computational task.
func (r *runner) endComm() {
	n := r.n
	r.comm.Finish(r.ev.Resume, n.cpuBase+r.cpu, r.start)
	now := n.k.Now()
	if n.tl != nil {
		n.tl.NamedSpan(n.cpuTracks[r.cpu], n.kindNames[r.ev.Op.Kind], r.start, now)
	}
	n.commCycles[r.cpu] += now - r.start
	n.lastComm[r.cpu] = now
}

// emitTask writes the computational task that ended now (the time since the
// previous communication operation) and, if given, the communication
// operation that ended it, to the CPU's task sink.
func (n *Node) emitTask(cpuIdx int, comm *ops.Op) {
	now := n.k.Now()
	elapsed := now - n.lastComm[cpuIdx]
	if n.tl != nil && elapsed > 0 {
		// The compute burst between two communication operations — the same
		// interval the task-level trace derivation records (Fig. 2).
		n.tl.NamedSpan(n.cpuTracks[cpuIdx], n.kindNames[ops.Compute], n.lastComm[cpuIdx], now)
	}
	n.col.Compute(n.cpuBase+cpuIdx, n.lastComm[cpuIdx], now)
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

// Blocked describes the runners that have not finished, for a deadlock
// report: "node0.cpu1 (await)", or whatever else each one's chain waits for.
func (n *Node) Blocked() []string {
	var out []string
	for _, r := range n.runners {
		if !r.done {
			out = append(out, fmt.Sprintf("node%d.cpu%d (%s)", n.id, r.cpu, r.chain.Reason()))
		}
	}
	return out
}

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
