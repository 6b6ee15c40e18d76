// Package stochastic is the stochastic trace generator of the workbench
// (§3): it turns a probabilistic application description into realistic
// synthetic operation traces, representing the behaviour of a class of
// applications with modest accuracy — useful for fast prototyping of new
// architectures, and easy to re-parameterise.
//
// A description is a sequence of phases, repeated for a number of
// iterations. Each phase generates computation — at the abstract-instruction
// level (operation mix plus a memory-reference model) or at the task level
// (compute durations) — followed by a communication pattern whose sends and
// receives are generated consistently across all nodes, so the resulting
// multi-node traces are well-formed.
package stochastic

import (
	"fmt"
	"slices"

	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/trace"
)

// Level selects the abstraction level of the generated computation.
type Level uint8

const (
	// InstructionLevel generates abstract machine instructions for the
	// single-node computational model.
	InstructionLevel Level = iota
	// TaskLevel generates compute(duration) events for the multi-node model
	// directly (the fast-prototyping path of Fig. 4).
	TaskLevel
)

// String returns the level name.
func (l Level) String() string {
	if l == TaskLevel {
		return "task"
	}
	return "instruction"
}

// Mix gives the relative frequencies of the instruction categories in a
// computational phase. Every generated instruction is preceded by its
// instruction fetch.
type Mix struct {
	Load     float64
	Store    float64
	IntArith float64
	FltArith float64
	Branch   float64
}

// DefaultMix is a typical scientific-code mix.
func DefaultMix() Mix {
	return Mix{Load: 0.25, Store: 0.10, IntArith: 0.30, FltArith: 0.25, Branch: 0.10}
}

func (m Mix) weights() []float64 {
	return []float64{m.Load, m.Store, m.IntArith, m.FltArith, m.Branch}
}

// MemModel describes the data-reference stream of a phase.
type MemModel struct {
	// Base is the first data address.
	Base uint64
	// WorkingSet is the span of addresses touched, in bytes.
	WorkingSet uint64
	// Stride, when non-zero, generates sequential strided references;
	// when zero, references are uniform over the working set.
	Stride uint64
	// Access is the reference width.
	Access ops.MemType
}

// DefaultMem is a 64 KiB uniformly accessed working set of words.
func DefaultMem() MemModel {
	return MemModel{Base: 0x1000_0000, WorkingSet: 64 << 10, Access: ops.MemWord}
}

// PatternKind names a communication pattern.
type PatternKind string

// Supported communication patterns.
const (
	None            PatternKind = "none"
	NearestNeighbor PatternKind = "nearest"  // ring-style: send to rank+1, receive from rank-1
	Exchange        PatternKind = "exchange" // pairwise with partner rank^1
	AllToAll        PatternKind = "alltoall"
	Hotspot         PatternKind = "hotspot" // everyone sends to node 0
	RandomPairs     PatternKind = "random"  // a random permutation each iteration
)

// Comm describes the communication closing a phase.
type Comm struct {
	Pattern PatternKind
	// Bytes is the mean message size; actual sizes are exponential around
	// the mean when Jitter is true, fixed otherwise.
	Bytes  uint32
	Jitter bool
	// Async selects asend/arecv instead of the synchronous pair.
	Async bool
}

// Phase is one compute-then-communicate unit of the description.
type Phase struct {
	Name string
	// Instructions is the mean number of instructions per node (instruction
	// level); Duration is the mean compute time (task level).
	Instructions int64
	Duration     int64
	// CV is the coefficient of variation of the computation amount across
	// nodes and iterations (0 = deterministic). Load imbalance, in effect.
	CV   float64
	Mix  Mix
	Mem  MemModel
	Comm Comm
}

// Desc is a complete stochastic application description.
type Desc struct {
	Name       string
	Nodes      int
	Level      Level
	Seed       uint64
	Iterations int
	Phases     []Phase
}

// Validate checks the description.
func (d *Desc) Validate() error {
	if d.Nodes < 1 {
		return fmt.Errorf("stochastic: %d nodes", d.Nodes)
	}
	if d.Iterations < 1 {
		return fmt.Errorf("stochastic: %d iterations", d.Iterations)
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("stochastic: no phases")
	}
	for i := range d.Phases {
		ph := &d.Phases[i]
		switch d.Level {
		case InstructionLevel:
			if ph.Instructions < 0 {
				return fmt.Errorf("stochastic: phase %d negative instructions", i)
			}
		case TaskLevel:
			if ph.Duration < 0 {
				return fmt.Errorf("stochastic: phase %d negative duration", i)
			}
		default:
			return fmt.Errorf("stochastic: unknown level %d", d.Level)
		}
		switch ph.Comm.Pattern {
		case None, NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs, "":
		default:
			return fmt.Errorf("stochastic: phase %d unknown pattern %q", i, ph.Comm.Pattern)
		}
		if ph.Comm.Pattern != None && ph.Comm.Pattern != "" && ph.Comm.Bytes == 0 {
			return fmt.Errorf("stochastic: phase %d communication with zero bytes", i)
		}
		if ph.CV < 0 {
			return fmt.Errorf("stochastic: phase %d negative CV", i)
		}
	}
	return nil
}

// Generate produces the complete per-node traces for the description.
func Generate(d Desc) ([][]ops.Op, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := &generator{d: d, rng: pearl.NewRNG(d.Seed)}
	traces := make([][]ops.Op, d.Nodes)
	for iter := 0; iter < d.Iterations; iter++ {
		for pi := range d.Phases {
			g.phase(traces, iter, &d.Phases[pi])
		}
	}
	return traces, nil
}

// Sources generates the traces and wraps them as per-node Sources.
func Sources(d Desc) ([]trace.Source, error) {
	tr, err := Generate(d)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Source, len(tr))
	for i := range tr {
		out[i] = trace.FromOps(tr[i])
	}
	return out, nil
}

type generator struct {
	d    Desc
	rng  *pearl.RNG
	pc   uint64
	tick uint64
}

// amount draws the per-node computation amount with the phase's CV.
func (g *generator) amount(mean int64, cv float64) int64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	v := float64(mean) * (1 + cv*g.rng.NormFloat64())
	if v < 0 {
		return 0
	}
	return int64(v)
}

func (g *generator) phase(traces [][]ops.Op, iter int, ph *Phase) {
	for node := range traces {
		switch g.d.Level {
		case InstructionLevel:
			g.computeInstr(&traces[node], node, ph)
		case TaskLevel:
			dur := g.amount(ph.Duration, ph.CV)
			traces[node] = append(traces[node], ops.NewCompute(dur))
		}
	}
	g.comm(traces, iter, ph)
}

func (g *generator) computeInstr(tr *[]ops.Op, node int, ph *Phase) {
	n := g.amount(ph.Instructions, ph.CV)
	mix := ph.Mix
	if mix == (Mix{}) {
		mix = DefaultMix()
	}
	mem := ph.Mem
	if mem.WorkingSet == 0 {
		mem = DefaultMem()
	}
	if mem.Access == ops.MemNone {
		mem.Access = ops.MemWord
	}
	weights := mix.weights()
	// Model a loop of period ~64 instructions: recurring fetch addresses.
	const loopBody = 64
	loopBase := g.pcBase(node)
	var cursor uint64
	// Two operations per instruction, count known: one growth, not a
	// doubling series that copies the trace again and again.
	*tr = slices.Grow(*tr, int(2*n))
	for i := int64(0); i < n; i++ {
		pc := loopBase + uint64(i%loopBody)*4
		*tr = append(*tr, ops.NewIFetch(pc))
		switch g.rng.WeightedChoice(weights) {
		case 0:
			*tr = append(*tr, ops.NewLoad(mem.Access, g.dataAddr(&mem, &cursor, node)))
		case 1:
			*tr = append(*tr, ops.NewStore(mem.Access, g.dataAddr(&mem, &cursor, node)))
		case 2:
			*tr = append(*tr, ops.NewArith(g.intKind(), ops.TypeInt))
		case 3:
			*tr = append(*tr, ops.NewArith(g.fltKind(), ops.TypeDouble))
		case 4:
			*tr = append(*tr, ops.NewBranch(loopBase))
		}
	}
}

// pcBase gives each node a stable code region.
func (g *generator) pcBase(node int) uint64 {
	return 0x0040_0000 + uint64(node)*0x1_0000
}

func (g *generator) dataAddr(mem *MemModel, cursor *uint64, node int) uint64 {
	span := mem.WorkingSet
	if span == 0 {
		span = 1
	}
	base := mem.Base + uint64(node)*span // per-node address space separation
	if mem.Stride > 0 {
		a := base + *cursor
		*cursor = (*cursor + mem.Stride) % span
		return a
	}
	sz := mem.Access.Size()
	slots := span / sz
	if slots == 0 {
		slots = 1
	}
	return base + uint64(g.rng.Int63n(int64(slots)))*sz
}

func (g *generator) intKind() ops.Kind {
	ks := []ops.Kind{ops.Add, ops.Add, ops.Sub, ops.Mul} // div rare
	return ks[g.rng.Intn(len(ks))]
}

func (g *generator) fltKind() ops.Kind {
	ks := []ops.Kind{ops.Add, ops.Mul, ops.Sub, ops.Div}
	return ks[g.rng.Intn(len(ks))]
}

func (g *generator) msgBytes(c *Comm) uint32 {
	if !c.Jitter {
		return c.Bytes
	}
	v := uint32(float64(c.Bytes) * g.rng.ExpFloat64())
	if v == 0 {
		v = 1
	}
	return v
}

// comm appends a well-formed communication pattern: every send has a
// matching receive with the same tag, and synchronous (rendezvous) rounds
// are ordered so they cannot deadlock — within each permutation round, the
// lower-ranked endpoint sends first and the higher-ranked one receives
// first, which breaks every wait cycle at its maximum element.
func (g *generator) comm(traces [][]ops.Op, _ int, ph *Phase) {
	c := &ph.Comm
	n := len(traces)
	if c.Pattern == None || c.Pattern == "" || n < 2 {
		return
	}
	switch c.Pattern {
	case NearestNeighbor:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + 1) % n
		}
		g.permRound(traces, c, perm)
	case Exchange:
		perm := make([]int, n)
		for i := range perm {
			if p := i ^ 1; p < n {
				perm[i] = p
			} else {
				perm[i] = i
			}
		}
		g.permRound(traces, c, perm)
	case AllToAll:
		// Pairwise exchange rounds: partner = rank XOR r. Every round is a
		// set of disjoint pairs, so each round is trivially deadlock-free,
		// and r = i^j eventually pairs every (i, j).
		npow := 1
		for npow < n {
			npow <<= 1
		}
		for r := 1; r < npow; r++ {
			perm := make([]int, n)
			for i := range perm {
				if p := i ^ r; p < n {
					perm[i] = p
				} else {
					perm[i] = i
				}
			}
			g.permRound(traces, c, perm)
		}
	case Hotspot:
		g.tick++
		tag := uint32(g.tick)
		for i := 1; i < n; i++ {
			b := g.msgBytes(c)
			g.emitSend(traces, c, i, 0, b, tag)
		}
		for i := 1; i < n; i++ {
			g.emitRecv(traces, c, i, 0, tag)
		}
	case RandomPairs:
		perm := g.rng.Perm(n)
		for isIdentity(perm) {
			perm = g.rng.Perm(n) // identity would mean no communication
		}
		g.permRound(traces, c, perm)
	}
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// permRound emits one permutation round: node i sends to perm[i] and
// receives from its inverse image. Lower rank sends first.
func (g *generator) permRound(traces [][]ops.Op, c *Comm, perm []int) {
	n := len(perm)
	g.tick++
	tag := uint32(g.tick)
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	sizes := make([]uint32, n)
	for i := range sizes {
		sizes[i] = g.msgBytes(c)
	}
	for i := 0; i < n; i++ {
		to, from := perm[i], inv[i]
		if to == i {
			continue
		}
		if i < to {
			g.emitSend(traces, c, i, to, sizes[i], tag)
			g.emitRecv(traces, c, from, i, tag)
		} else {
			g.emitRecv(traces, c, from, i, tag)
			g.emitSend(traces, c, i, to, sizes[i], tag)
		}
	}
}

// emitSend appends the sending side of one transfer to the sender's trace.
func (g *generator) emitSend(traces [][]ops.Op, c *Comm, from, to int, bytes uint32, tag uint32) {
	if c.Async {
		traces[from] = append(traces[from], ops.NewASend(bytes, int32(to), tag))
	} else {
		traces[from] = append(traces[from], ops.NewSend(bytes, int32(to), tag))
	}
}

// emitRecv appends the receiving side of the transfer from -> to.
func (g *generator) emitRecv(traces [][]ops.Op, c *Comm, from, to int, tag uint32) {
	if c.Async {
		ar := ops.NewARecv(int32(from), tag)
		ar.Addr = uint64(tag)<<20 | uint64(from) // unique handle per (round, source)
		traces[to] = append(traces[to], ar, ops.NewWaitRecv(ar.Addr))
	} else {
		traces[to] = append(traces[to], ops.NewRecv(int32(from), tag))
	}
}

// MarshalJSON encodes the level by name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON decodes "instruction" or "task".
func (l *Level) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"instruction"`, `""`:
		*l = InstructionLevel
	case `"task"`:
		*l = TaskLevel
	default:
		return fmt.Errorf("stochastic: unknown level %s", b)
	}
	return nil
}
