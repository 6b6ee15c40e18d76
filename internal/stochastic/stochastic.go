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
	srcs, err := generate(d)
	if err != nil {
		return nil, err
	}
	buf := make([]ops.Op, maxBatch) // one node is drained at a time
	traces := make([][]ops.Op, len(srcs))
	for i := range srcs {
		s := &srcs[i]
		s.buf = buf
		total, _ := s.sizes()
		tr := make([]ops.Op, 0, total)
		for {
			b, _, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			tr = append(tr, b...)
		}
		traces[i] = tr
	}
	return traces, nil
}

// Sources generates the traces as per-node Sources. What was drawn is kept
// as numbers; a source makes its node's operations as they are read, into a
// buffer of its own that holds the node's largest phase instance, up to
// maxBatch operations. The buffers are cut from one allocation.
func Sources(d Desc) ([]trace.Source, error) {
	srcs, err := generate(d)
	if err != nil {
		return nil, err
	}
	lens := make([]int, len(srcs))
	total := 0
	for i := range srcs {
		_, largest := srcs[i].sizes()
		lens[i] = min(largest, maxBatch)
		total += lens[i]
	}
	slab := make([]ops.Op, total)
	out := make([]trace.Source, len(srcs))
	for i, n := range lens {
		srcs[i].buf, slab = slab[:n:n], slab[n:]
		out[i] = &srcs[i]
	}
	return out, nil
}

// maxBatch is the most operations a source makes per batch.
const maxBatch = 64

// generate draws every phase instance, one phase of all nodes at a time, in
// the order the description gives them, and returns the nodes' sources,
// each unread and without a buffer.
func generate(d Desc) ([]source, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	g := &generator{d: d, rng: pearl.NewRNG(d.Seed)}
	dr := &draws{nodes: d.Nodes, level: d.Level, insts: make([]instance, 0, d.Iterations*len(d.Phases))}
	for iter := 0; iter < d.Iterations; iter++ {
		for pi := range d.Phases {
			dr.insts = append(dr.insts, g.phase(&d.Phases[pi]))
		}
	}
	srcs := make([]source, d.Nodes)
	for i := range srcs {
		srcs[i] = source{dr: dr, node: i}
	}
	return srcs, nil
}

// draws is a description as drawn: every phase instance, an (iteration,
// phase) pair, in trace order.
type draws struct {
	nodes int
	level Level
	insts []instance
}

// instance is one phase instance as drawn: every node's computation and the
// communication that closes it. A permutation pattern is rounds of
// one-to-one transfers; a hotspot is one round in which every other node
// sends to node 0.
type instance struct {
	comm Comm
	// Task level: every node's compute amount, or, when amounts is nil
	// (nothing was drawn), amount for all of them.
	amount  int64
	amounts []int64
	// Instruction level: per node, its computation; a block with no codes
	// computes nothing.
	blocks []block
	rounds int    // communication rounds: 0 with no communication
	tag    uint32 // the first round's tag; round r's is tag+r
	// sizes are the jittered message sizes, per round and node (a
	// hotspot's: per sender); nil without jitter.
	sizes []uint32
	// perm and inv are a random pattern's permutation and its inverse.
	perm, inv []int32
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

// units is the number of communication units node has in the instance: one
// per round, but at a hotspot node 0 receives one message per sender.
func (in *instance) units(node, n int) int {
	if in.comm.Pattern == Hotspot && node == 0 && in.rounds > 0 {
		return n - 1
	}
	return in.rounds
}

// partners gives the node's peers in round r of a permutation pattern: the
// node it sends to and the node it receives from, itself for neither.
func (in *instance) partners(node, n, r int) (to, from int) {
	switch in.comm.Pattern {
	case NearestNeighbor:
		return (node + 1) % n, (node + n - 1) % n
	case RandomPairs:
		return int(in.perm[node]), int(in.inv[node])
	case AllToAll:
		// Pairwise exchange rounds: partner = rank XOR (r+1). Every round
		// is a set of disjoint pairs, and the rounds pair every two nodes.
		r++
	default: // Exchange: the partner is rank^1
		r = 1
	}
	if p := node ^ r; p < n {
		return p, p
	}
	return node, node
}

// maxUnit is the most operations a communication unit has: an
// asynchronous send, receive and wait.
const maxUnit = 3

// writeUnit writes the node's communication unit r into dst, which has room
// for maxUnit operations, and returns the number of operations written. In
// a permutation round the lower-ranked end of each transfer sends first and
// the higher-ranked one receives first, which breaks every wait cycle of a
// synchronous round at its maximum element, so no round can deadlock.
func (in *instance) writeUnit(dst []ops.Op, node, n, r int) int {
	c := &in.comm
	if c.Pattern == Hotspot {
		if node == 0 {
			return recvOps(dst, c.Async, r+1, in.tag)
		}
		return sendOps(dst, c.Async, in.size(0, node, n), 0, in.tag)
	}
	to, from := in.partners(node, n, r)
	if to == node {
		return 0
	}
	tag, size := in.tag+uint32(r), in.size(r, node, n)
	if node < to {
		k := sendOps(dst, c.Async, size, to, tag)
		return k + recvOps(dst[k:], c.Async, from, tag)
	}
	k := recvOps(dst, c.Async, from, tag)
	return k + sendOps(dst[k:], c.Async, size, to, tag)
}

// size is the size of the message node sends in round r.
func (in *instance) size(r, node, n int) uint32 {
	if in.sizes == nil {
		return in.comm.Bytes
	}
	return in.sizes[r*n+node]
}

// sendOps writes the sending side of one transfer.
func sendOps(dst []ops.Op, async bool, bytes uint32, to int, tag uint32) int {
	if async {
		dst[0] = ops.NewASend(bytes, int32(to), tag)
	} else {
		dst[0] = ops.NewSend(bytes, int32(to), tag)
	}
	return 1
}

// recvOps writes the receiving side of the transfer from `from`.
func recvOps(dst []ops.Op, async bool, from int, tag uint32) int {
	if !async {
		dst[0] = ops.NewRecv(int32(from), tag)
		return 1
	}
	ar := ops.NewARecv(int32(from), tag)
	ar.Addr = uint64(tag)<<20 | uint64(from) // unique handle per (round, source)
	dst[0], dst[1] = ar, ops.NewWaitRecv(ar.Addr)
	return 2
}

// source is one node's trace read as a trace.Source: the draws it reads
// from and how far it has read them.
type source struct {
	dr   *draws
	node int
	k    int // the phase instance being read
	i, j int // its computation's instructions (task level: 1 once written) and addresses written
	r    int // its communication units written
	buf  []ops.Op
}

// NextBatch implements trace.Source: as many of the node's next operations
// as fill the source's buffer, made in it from the draws.
func (s *source) NextBatch() ([]ops.Op, trace.Global, error) {
	n := 0
	for s.k < len(s.dr.insts) {
		w, done := s.fill(s.buf[n:], &s.dr.insts[s.k])
		n += w
		if !done {
			break
		}
		s.k++
		s.i, s.j, s.r = 0, 0, 0
	}
	if n == 0 {
		return nil, trace.Global{}, io.EOF
	}
	return s.buf[:n], trace.Global{}, nil
}

// fill writes what is left of the node's part of the instance into dst, as
// far as it has room, and says whether all of it was written. A computation
// is cut between instructions, a communication only between units.
func (s *source) fill(dst []ops.Op, in *instance) (int, bool) {
	n := 0
	if s.dr.level == TaskLevel {
		if s.i == 0 {
			if len(dst) == 0 {
				return 0, false
			}
			dst[0] = ops.NewCompute(in.amountOf(s.node))
			n, s.i = 1, 1
		}
	} else if b := &in.blocks[s.node]; s.i < len(b.codes) {
		m := min(len(b.codes)-s.i, len(dst)/2)
		s.j = b.expand(dst[:2*m], s.i, s.j)
		s.i += m
		if n = 2 * m; s.i < len(b.codes) {
			return n, false
		}
	}
	var unit [maxUnit]ops.Op
	for units := in.units(s.node, s.dr.nodes); s.r < units; s.r++ {
		k := in.writeUnit(unit[:], s.node, s.dr.nodes, s.r)
		if k > len(dst)-n {
			return n, false
		}
		n += copy(dst[n:], unit[:k])
	}
	return n, true
}

// sizes returns the number of operations in the node's whole trace and in
// its largest phase instance.
func (s *source) sizes() (total, largest int) {
	for k := range s.dr.insts {
		in := &s.dr.insts[k]
		l := 1
		if s.dr.level == InstructionLevel {
			l = 2 * len(in.blocks[s.node].codes)
		}
		var unit [maxUnit]ops.Op
		for r, units := 0, in.units(s.node, s.dr.nodes); r < units; r++ {
			l += in.writeUnit(unit[:], s.node, s.dr.nodes, r)
		}
		total += l
		largest = max(largest, l)
	}
	return total, largest
}

// amountOf is the node's task-level compute amount.
func (in *instance) amountOf(node int) int64 {
	if in.amounts == nil {
		return in.amount
	}
	return in.amounts[node]
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

// phase draws one phase instance: every node's computation, in node order,
// then the communication's draws.
func (g *generator) phase(ph *Phase) instance {
	n := g.d.Nodes
	in := instance{comm: ph.Comm}
	switch g.d.Level {
	case InstructionLevel:
		in.blocks = make([]block, n)
		for node := range in.blocks {
			g.computeInstr(&in.blocks[node], node, ph)
		}
	case TaskLevel:
		if ph.Duration > 0 && ph.CV > 0 {
			in.amounts = make([]int64, n)
			for node := range in.amounts {
				in.amounts[node] = g.amount(ph.Duration, ph.CV)
			}
		} else {
			in.amount = g.amount(ph.Duration, ph.CV)
		}
	}
	g.comm(&in)
	return in
}

// computeInstr draws the node's computation of the phase as a block: the
// amount, then per instruction its operation and, for a load or store, the
// address.
func (g *generator) computeInstr(b *block, node int, ph *Phase) {
	n := g.amount(ph.Instructions, ph.CV)
	if n == 0 {
		return
	}
	mix := newChooser(ph.Mix.weights())
	*b = block{codes: make([]uint8, n), pc: pcBase(node), access: ph.Mem.Access}
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

// comm draws the instance's communication: a random pattern's permutation,
// then the jittered message sizes, round by round and node by node (at a
// hotspot, sender by sender), and takes one tag per round. Every send has
// a matching receive with the same tag (writeUnit).
func (g *generator) comm(in *instance) {
	c := &in.comm
	n := g.d.Nodes
	if c.Pattern == noComm || c.Pattern == "" || n < 2 {
		return
	}
	in.rounds = 1
	switch c.Pattern {
	case AllToAll:
		npow := 1
		for npow < n {
			npow <<= 1
		}
		in.rounds = npow - 1
	case RandomPairs:
		perm := g.rng.Perm(n)
		for isIdentity(perm) {
			perm = g.rng.Perm(n) // identity would mean no communication
		}
		in.perm, in.inv = make([]int32, n), make([]int32, n)
		for i, p := range perm {
			in.perm[i], in.inv[p] = int32(p), int32(i)
		}
	}
	if c.Jitter {
		in.sizes = make([]uint32, in.rounds*n)
		first := 0
		if c.Pattern == Hotspot {
			first = 1 // node 0 sends nothing
		}
		for i := first; i < len(in.sizes); i++ {
			in.sizes[i] = g.msgBytes(c)
		}
	}
	in.tag = uint32(g.tick + 1)
	g.tick += uint64(in.rounds)
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
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
