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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// defaultMix is a typical scientific-code mix.
func defaultMix() Mix {
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

// defaultMem is a 64 KiB uniformly accessed working set of words.
func defaultMem() MemModel {
	return MemModel{Base: 0x1000_0000, WorkingSet: 64 << 10, Access: ops.MemWord}
}

// PatternKind names a communication pattern.
type PatternKind string

// Supported communication patterns.
const (
	noComm          PatternKind = "none"
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

// validate checks the description and writes back the defaults of its
// instruction-level phases: an empty Mix is defaultMix, a zero WorkingSet
// makes the whole MemModel defaultMem, and a MemNone access is a word. The
// phases are copied first: the caller's slice may be shared.
func (d *Desc) validate() error {
	if d.Nodes < 1 {
		return fmt.Errorf("stochastic: %d nodes", d.Nodes)
	}
	if d.Iterations < 1 {
		return fmt.Errorf("stochastic: %d iterations", d.Iterations)
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("stochastic: no phases")
	}
	d.Phases = slices.Clone(d.Phases)
	for i := range d.Phases {
		ph := &d.Phases[i]
		switch d.Level {
		case InstructionLevel:
			if ph.Instructions < 0 {
				return fmt.Errorf("stochastic: phase %d negative instructions", i)
			}
			if ph.Mix == (Mix{}) {
				ph.Mix = defaultMix()
			}
			if slices.ContainsFunc(ph.Mix.weights(), func(w float64) bool { return w < 0 }) {
				return fmt.Errorf("stochastic: phase %d negative mix weight", i)
			}
			if ph.Mem.WorkingSet == 0 {
				ph.Mem = defaultMem()
			}
			if ph.Mem.Access == ops.MemNone {
				ph.Mem.Access = ops.MemWord
			}
			sz := ph.Mem.Access.Size()
			if sz == 0 {
				return fmt.Errorf("stochastic: phase %d unknown access type %d", i, ph.Mem.Access)
			}
			if ph.Mem.Stride == 0 && ph.Mem.WorkingSet/sz > math.MaxInt64 {
				return fmt.Errorf("stochastic: phase %d uniform references over 2^63 accesses or more", i)
			}
		case TaskLevel:
			if ph.Duration < 0 {
				return fmt.Errorf("stochastic: phase %d negative duration", i)
			}
		default:
			return fmt.Errorf("stochastic: unknown level %d", d.Level)
		}
		switch ph.Comm.Pattern {
		case noComm, NearestNeighbor, Exchange, AllToAll, Hotspot, RandomPairs, "":
		default:
			return fmt.Errorf("stochastic: phase %d unknown pattern %q", i, ph.Comm.Pattern)
		}
		if ph.Comm.Pattern != noComm && ph.Comm.Pattern != "" && ph.Comm.Bytes == 0 {
			return fmt.Errorf("stochastic: phase %d communication with zero bytes", i)
		}
		if ph.CV < 0 {
			return fmt.Errorf("stochastic: phase %d negative CV", i)
		}
	}
	return nil
}

// ParseDesc decodes and validates a description from JSON, as strictly as
// machine.ParseConfig decodes a machine: unknown fields (a misspelt "Byts")
// and anything but whitespace after the document are errors. It returns the
// effective description, every default written back, so that a document
// that omits a default and one that writes it out parse to one value. Nodes
// may be omitted (0): the machine that runs the description sizes it.
func ParseDesc(data []byte) (Desc, error) {
	var d Desc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Desc{}, fmt.Errorf("stochastic: parsing description: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Desc{}, fmt.Errorf("stochastic: trailing data after description JSON")
	}
	nodes := d.Nodes
	if d.Nodes == 0 {
		d.Nodes = 1
	}
	if err := d.validate(); err != nil {
		return Desc{}, err
	}
	d.Nodes = nodes
	return d, nil
}

// Generate produces the complete per-node traces for the description: the
// per-node sources drained, each into a slice of exactly its length.
func Generate(d Desc) ([][]ops.Op, error) {
	streams, err := generate(d)
	if err != nil {
		return nil, err
	}
	traces := make([][]ops.Op, len(streams))
	for i := range streams {
		traces[i] = make([]ops.Op, streams[i].n)
		streams[i].flatten(traces[i])
	}
	return traces, nil
}

// Sources generates the traces as per-node Sources. A source hands out plain
// operations in place and expands an instruction-level computation, kept as
// drawn, a batch at a time into a buffer of its own.
func Sources(d Desc) ([]trace.Source, error) {
	streams, err := generate(d)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Source, len(streams))
	for i := range streams {
		out[i] = &streams[i]
	}
	return out, nil
}

// generate draws every node's trace, one phase of all nodes at a time.
func generate(d Desc) ([]stream, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	g := &generator{d: d, rng: pearl.NewRNG(d.Seed)}
	streams := make([]stream, d.Nodes)
	for iter := 0; iter < d.Iterations; iter++ {
		for pi := range d.Phases {
			g.phase(streams, iter, &d.Phases[pi])
		}
	}
	return streams, nil
}

// stream is one node's trace: a list of parts, and, read as a trace.Source,
// how far it has been read. A part is a segment of plain operations, the
// last one open for appends, or an instruction-level computation block. A
// segment never grows — an append it has no room for starts a new one — so
// no operation is copied once it is written.
type stream struct {
	parts []part
	n     int // operations in all parts

	buf  []ops.Op // the expansion buffer, made at the first block read
	i, j int      // instructions and addresses of parts[0]'s block read
}

// part is a segment of plain operations, or, when blk is set, a block.
type part struct {
	seg []ops.Op
	blk *block
}

// block is one node's computation of one phase as drawn: per instruction the
// code of its operation, and per load or store its address. The fetch
// addresses and branch targets follow from the instruction's index.
type block struct {
	codes  []uint8  // per instruction: its operation, an index into codeOps
	addrs  []uint64 // per load or store, in order
	pc     uint64   // the node's code region: the loop's first fetch and every branch target
	access ops.MemType
}

// A block's code per instruction indexes codeOps, which gives the operation
// but for the address and access of a load, store or branch. An arithmetic
// code is drawn uniformly among the four of its type, so codeOps also sets
// how often each kind occurs: division is rare in integer code.
const (
	codeLoad uint8 = iota
	codeStore
	codeBranch
	codeInt
	codeDouble = codeInt + 4
)

var codeOps = [...]ops.Op{
	codeLoad:   {Kind: ops.Load},
	codeStore:  {Kind: ops.Store},
	codeBranch: {Kind: ops.Branch},
	codeInt:    {Kind: ops.Add, Data: ops.TypeInt}, {Kind: ops.Add, Data: ops.TypeInt},
	{Kind: ops.Sub, Data: ops.TypeInt}, {Kind: ops.Mul, Data: ops.TypeInt},
	codeDouble: {Kind: ops.Add, Data: ops.TypeDouble}, {Kind: ops.Mul, Data: ops.TypeDouble},
	{Kind: ops.Sub, Data: ops.TypeDouble}, {Kind: ops.Div, Data: ops.TypeDouble},
}

// loopBody is the period, in instructions, of a computation's fetch
// addresses: the model of a loop body of about 64 instructions.
const loopBody = 64

// blockBatch is the most instructions a source expands per batch.
const blockBatch = 64

// expand writes instructions i, i+1, … of the block into dst as fetch and
// operation pairs, filling it; j indexes the first instruction's load or
// store address. It returns the address index after the last one written.
func (b *block) expand(dst []ops.Op, i, j int) int {
	for k, c := range b.codes[i : i+len(dst)/2] {
		pair := dst[2*k : 2*k+2 : 2*k+2]
		pair[0] = ops.NewIFetch(b.pc + uint64(i+k)%loopBody*4)
		op := codeOps[c]
		if c <= codeStore {
			op.Mem, op.Addr = b.access, b.addrs[j]
			j++
		} else if c == codeBranch {
			op.Addr = b.pc
		}
		pair[1] = op
	}
	return j
}

// NextBatch implements trace.Source: the next segment in place, or the next
// instructions of a block, at most blockBatch, expanded into the stream's
// buffer. A part read to its end is dropped, so that what was read can be
// collected during the run.
func (s *stream) NextBatch() ([]ops.Op, trace.Global, error) {
	for len(s.parts) > 0 {
		p := s.parts[0]
		if p.blk == nil {
			s.parts[0], s.parts = part{}, s.parts[1:]
			return p.seg, trace.Global{}, nil
		}
		if m := min(len(p.blk.codes)-s.i, blockBatch); m > 0 {
			if s.buf == nil {
				s.buf = make([]ops.Op, 2*blockBatch)
			}
			b := s.buf[:2*m]
			s.j = p.blk.expand(b, s.i, s.j)
			s.i += m
			return b, trace.Global{}, nil
		}
		s.parts[0], s.parts = part{}, s.parts[1:]
		s.i, s.j = 0, 0
	}
	return nil, trace.Global{}, io.EOF
}

// flatten writes the stream's operations into out, which holds exactly
// their number, leaving the stream unread.
func (s *stream) flatten(out []ops.Op) {
	k := 0
	for _, p := range s.parts {
		if p.blk == nil {
			k += copy(out[k:], p.seg)
			continue
		}
		n := 2 * len(p.blk.codes)
		p.blk.expand(out[k:k+n], 0, 0)
		k += n
	}
}

// segmentSpare is the most room a new segment gets beyond the append that
// starts it, in operations: enough for the communication operations that
// close a phase, so a phase and its communication share a segment.
const segmentSpare = 64

// add appends plain operations to the stream's open segment. A new segment
// gets as much room again as the stream will hold, up to segmentSpare: short
// streams grow geometrically, and a long computation is not followed by a
// segment as long.
func (s *stream) add(o ...ops.Op) {
	k := len(o)
	if l := len(s.parts) - 1; l < 0 || s.parts[l].blk != nil || cap(s.parts[l].seg)-len(s.parts[l].seg) < k {
		s.parts = append(s.parts, part{seg: make([]ops.Op, 0, k+min(s.n+k, segmentSpare))})
	}
	seg := &s.parts[len(s.parts)-1].seg
	*seg = append(*seg, o...)
	s.n += k
}

type generator struct {
	d     Desc
	rng   *pearl.RNG
	tick  uint64
	addrs []uint64 // the addresses of the block being drawn
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

func (g *generator) phase(streams []stream, iter int, ph *Phase) {
	for node := range streams {
		switch g.d.Level {
		case InstructionLevel:
			g.computeInstr(&streams[node], node, ph)
		case TaskLevel:
			streams[node].add(ops.NewCompute(g.amount(ph.Duration, ph.CV)))
		}
	}
	g.comm(streams, iter, ph)
}

// computeInstr draws the node's computation of the phase as a block: the
// amount, then per instruction its operation and, for a load or store, the
// address.
func (g *generator) computeInstr(s *stream, node int, ph *Phase) {
	n := g.amount(ph.Instructions, ph.CV)
	if n == 0 {
		return
	}
	mix := newChooser(ph.Mix.weights())
	b := &block{codes: make([]uint8, n), pc: pcBase(node), access: ph.Mem.Access}
	g.addrs = g.addrs[:0]
	refs := newRefs(&ph.Mem, node)
	for i := range b.codes {
		switch mix.choose(g.rng) {
		case 0:
			b.codes[i] = codeLoad
			g.addrs = append(g.addrs, refs.next(g.rng))
		case 1:
			b.codes[i] = codeStore
			g.addrs = append(g.addrs, refs.next(g.rng))
		case 2:
			b.codes[i] = codeInt + uint8(g.rng.Intn(4))
		case 3:
			b.codes[i] = codeDouble + uint8(g.rng.Intn(4))
		case 4:
			b.codes[i] = codeBranch
		}
	}
	b.addrs = slices.Clone(g.addrs)
	s.parts = append(s.parts, part{blk: b})
	s.n += int(2 * n)
}

// pcBase gives each node a stable code region.
func pcBase(node int) uint64 {
	return 0x0040_0000 + uint64(node)*0x1_0000
}

// chooser draws an index with probability proportional to its weight, the
// weights' sum taken once. The weights are a validated Mix's: non-negative,
// with a positive sum.
type chooser struct {
	weights []float64
	total   float64
}

func newChooser(weights []float64) chooser {
	c := chooser{weights: weights}
	for _, w := range weights {
		c.total += w
	}
	return c
}

func (c *chooser) choose(rng *pearl.RNG) int {
	x := rng.Float64() * c.total
	for i, w := range c.weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(c.weights) - 1
}

// refs draws a computation's data addresses in the node's window of the
// working set: strided through it, or uniform over its slots of the access
// size.
type refs struct {
	base, span, stride, cursor uint64
	sz, slots                  uint64
}

func newRefs(mem *MemModel, node int) refs {
	span, sz := mem.WorkingSet, mem.Access.Size()
	return refs{
		base:   mem.Base + uint64(node)*span, // per-node address space separation
		span:   span,
		stride: mem.Stride,
		sz:     sz,
		slots:  max(span/sz, 1),
	}
}

func (r *refs) next(rng *pearl.RNG) uint64 {
	if r.stride > 0 {
		a := r.base + r.cursor
		r.cursor = (r.cursor + r.stride) % r.span
		return a
	}
	return r.base + uint64(rng.Int63n(int64(r.slots)))*r.sz
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
func (g *generator) comm(streams []stream, _ int, ph *Phase) {
	c := &ph.Comm
	n := len(streams)
	if c.Pattern == noComm || c.Pattern == "" || n < 2 {
		return
	}
	switch c.Pattern {
	case NearestNeighbor:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + 1) % n
		}
		g.permRound(streams, c, perm)
	case Exchange:
		perm := make([]int, n)
		for i := range perm {
			if p := i ^ 1; p < n {
				perm[i] = p
			} else {
				perm[i] = i
			}
		}
		g.permRound(streams, c, perm)
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
			g.permRound(streams, c, perm)
		}
	case Hotspot:
		g.tick++
		tag := uint32(g.tick)
		for i := 1; i < n; i++ {
			b := g.msgBytes(c)
			g.emitSend(streams, c, i, 0, b, tag)
		}
		for i := 1; i < n; i++ {
			g.emitRecv(streams, c, i, 0, tag)
		}
	case RandomPairs:
		perm := g.rng.Perm(n)
		for isIdentity(perm) {
			perm = g.rng.Perm(n) // identity would mean no communication
		}
		g.permRound(streams, c, perm)
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
func (g *generator) permRound(streams []stream, c *Comm, perm []int) {
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
			g.emitSend(streams, c, i, to, sizes[i], tag)
			g.emitRecv(streams, c, from, i, tag)
		} else {
			g.emitRecv(streams, c, from, i, tag)
			g.emitSend(streams, c, i, to, sizes[i], tag)
		}
	}
}

// emitSend appends the sending side of one transfer to the sender's trace.
func (g *generator) emitSend(streams []stream, c *Comm, from, to int, bytes uint32, tag uint32) {
	if c.Async {
		streams[from].add(ops.NewASend(bytes, int32(to), tag))
	} else {
		streams[from].add(ops.NewSend(bytes, int32(to), tag))
	}
}

// emitRecv appends the receiving side of the transfer from -> to.
func (g *generator) emitRecv(streams []stream, c *Comm, from, to int, tag uint32) {
	if c.Async {
		ar := ops.NewARecv(int32(from), tag)
		ar.Addr = uint64(tag)<<20 | uint64(from) // unique handle per (round, source)
		streams[to].add(ar, ops.NewWaitRecv(ar.Addr))
	} else {
		streams[to].add(ops.NewRecv(int32(from), tag))
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
