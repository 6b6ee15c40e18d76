// Package annotate is the annotation translator of the workbench (§5): the
// library that instrumented application programs are linked with. Programs
// are written against annotation calls that follow their control flow and
// describe their memory and computational behaviour in an architecture-
// independent way; the translator turns each annotation into the appropriate
// instruction fetch, memory and arithmetic operations of Table 1, using a
// variable descriptor table and the addressing/runtime capabilities of the
// target processor. It is, as the paper puts it, a kind of generic compiler.
//
// Control flow is evaluated by actually executing the instrumented program,
// so every invocation of a loop body is individually traced and leads to
// recurring instruction-fetch addresses.
package annotate

import (
	"fmt"

	"mermaid/internal/ops"
	"mermaid/internal/trace"
)

// Target describes the addressing and runtime capabilities of the simulated
// processor — the knowledge the generic compiler needs to assign addresses
// and decide register placement.
type Target struct {
	// CodeBase is where instruction addresses start.
	CodeBase uint64
	// GlobalBase is where global variables are laid out (upwards).
	GlobalBase uint64
	// StackBase is where the stack starts (growing downwards).
	StackBase uint64
	// RegisterLocals is how many leading scalar locals per frame the
	// compiler keeps in registers.
	RegisterLocals int
	// InstrBytes is the encoded instruction size (ifetch stride).
	InstrBytes uint64
	// SharedBase is where virtual-shared-memory variables are laid out.
	// Every thread allocates shared variables in the same (deterministic)
	// order, so the same declaration yields the same address on every node
	// — the single global address space the DSM layer resolves.
	SharedBase uint64
}

// GenericTarget returns a plain 32-bit RISC-ish target.
func GenericTarget() Target {
	return Target{
		CodeBase:       0x0040_0000,
		GlobalBase:     0x1000_0000,
		StackBase:      0x7fff_f000,
		RegisterLocals: 4,
		InstrBytes:     4,
		SharedBase:     0x8000_0000,
	}
}

// VarClass distinguishes the entries of the variable descriptor table.
type VarClass uint8

const (
	global VarClass = iota
	local
)

// Var is one entry of the variable descriptor table: whether the variable is
// global or local, its address, whether it lives in a
// register, and its type (§5.1).
type Var struct {
	Name  string
	Class VarClass
	Type  ops.MemType
	Count int // array element count; 1 for scalars
	Addr  uint64
	InReg bool
}

// size returns the variable's total size in bytes.
func (v *Var) size() uint64 { return v.Type.Size() * uint64(v.Count) }

// Unit is one thread's translation context: it owns the variable descriptor
// table, the code-address map and the simulated stack, and emits operations
// into the thread's trace.
type Unit struct {
	th     *trace.Thread
	target Target

	globalTop uint64
	sharedTop uint64
	stackTop  uint64
	frames    []*frame

	labels  map[string]uint64
	pc      uint64
	codeTop uint64
}

type frame struct {
	name     string
	base     uint64
	top      uint64
	regsUsed int
}

// New creates a translation unit for thread th targeting the given machine.
// Every field of target is used as given: start from GenericTarget.
func New(th *trace.Thread, target Target) *Unit {
	return &Unit{
		th:        th,
		target:    target,
		globalTop: target.GlobalBase,
		sharedTop: target.SharedBase,
		stackTop:  target.StackBase,
		labels:    make(map[string]uint64),
		pc:        target.CodeBase,
		codeTop:   target.CodeBase,
	}
}

func align(addr, size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (addr + size - 1) &^ (size - 1)
}

// Global declares a global scalar, assigning it an address in the global
// segment.
func (u *Unit) Global(name string, typ ops.MemType) *Var {
	return u.GlobalArray(name, typ, 1)
}

// GlobalArray declares a global array of n elements.
func (u *Unit) GlobalArray(name string, typ ops.MemType, n int) *Var {
	if n < 1 {
		panic(fmt.Sprintf("annotate: array %q with %d elements", name, n))
	}
	u.globalTop = align(u.globalTop, typ.Size())
	v := &Var{Name: name, Class: global, Type: typ, Count: n, Addr: u.globalTop}
	u.globalTop += v.size()
	return v
}

// SharedArray declares an array of n elements in the virtual-shared-memory
// segment: the same declaration order yields the same address on every node,
// and accesses to it are resolved by the DSM layer when the machine has one
// (§5).
func (u *Unit) SharedArray(name string, typ ops.MemType, n int) *Var {
	if n < 1 {
		panic(fmt.Sprintf("annotate: shared array %q with %d elements", name, n))
	}
	if u.target.SharedBase == 0 {
		panic("annotate: target has no shared segment (SharedBase is 0)")
	}
	u.sharedTop = align(u.sharedTop, typ.Size())
	v := &Var{Name: name, Class: global, Type: typ, Count: n, Addr: u.sharedTop}
	u.sharedTop += v.size()
	return v
}

// Enter opens a function frame (for locals). Pair with Leave.
func (u *Unit) Enter(name string) {
	u.frames = append(u.frames, &frame{name: name, base: u.stackTop, top: u.stackTop})
}

// Leave closes the innermost frame, releasing its stack space.
func (u *Unit) Leave() {
	if len(u.frames) == 0 {
		panic("annotate: Leave without Enter")
	}
	f := u.frames[len(u.frames)-1]
	u.frames = u.frames[:len(u.frames)-1]
	u.stackTop = f.base
}

func (u *Unit) curFrame() *frame {
	if len(u.frames) == 0 {
		panic("annotate: local declared outside a function frame")
	}
	return u.frames[len(u.frames)-1]
}

// Local declares a scalar local in the current frame. The first
// RegisterLocals scalars are register-allocated: their loads and stores cost
// no memory operation, exactly the information the descriptor table exists
// to provide.
func (u *Unit) Local(name string, typ ops.MemType) *Var {
	return u.localVar(name, typ, 1)
}

// LocalArray declares a local array (never register-allocated).
func (u *Unit) LocalArray(name string, typ ops.MemType, n int) *Var {
	return u.localVar(name, typ, n)
}

func (u *Unit) localVar(name string, typ ops.MemType, n int) *Var {
	f := u.curFrame()
	size := typ.Size() * uint64(n)
	f.top = (f.top - size) &^ (typ.Size() - 1) // stack grows down, aligned
	v := &Var{Name: f.name + "." + name, Class: local, Type: typ, Count: n, Addr: f.top}
	if n == 1 && f.regsUsed < u.target.RegisterLocals {
		v.InReg = true
		f.regsUsed++
	}
	u.stackTop = f.top
	return v
}

// fetch emits the instruction fetch for the next annotation and advances the
// program counter.
func (u *Unit) fetch() {
	u.th.Emit(ops.NewIFetch(u.pc))
	u.pc += u.target.InstrBytes
	if u.pc > u.codeTop {
		u.codeTop = u.pc
	}
}

func (u *Unit) emit(o ops.Op) { u.th.Emit(o) }

// Load translates a "variable is read" annotation: an instruction fetch,
// plus a load operation unless the variable is register-resident.
func (u *Unit) Load(v *Var) {
	u.fetch()
	if !v.InReg {
		u.emit(ops.NewLoad(v.Type, v.Addr))
	}
}

// Store translates a "variable is written" annotation.
func (u *Unit) Store(v *Var) {
	u.fetch()
	if !v.InReg {
		u.emit(ops.NewStore(v.Type, v.Addr))
	}
}

// LoadElem translates an indexed array read A[i]: the address arithmetic
// (constant load + multiply + add) followed by the element load.
func (u *Unit) LoadElem(v *Var, idx int) {
	u.indexArith(v, idx)
	u.fetch()
	u.emit(ops.NewLoad(v.Type, u.elemAddr(v, idx)))
}

// StoreElem translates an indexed array write A[i] = x.
func (u *Unit) StoreElem(v *Var, idx int) {
	u.indexArith(v, idx)
	u.fetch()
	u.emit(ops.NewStore(v.Type, u.elemAddr(v, idx)))
}

func (u *Unit) elemAddr(v *Var, idx int) uint64 {
	if idx < 0 || idx >= v.Count {
		panic(fmt.Sprintf("annotate: %s[%d] out of bounds (%d elements)", v.Name, idx, v.Count))
	}
	return v.Addr + uint64(idx)*v.Type.Size()
}

func (u *Unit) indexArith(v *Var, _ int) {
	// addr = base + idx*size: one multiply, one add on the integer unit.
	u.fetch()
	u.emit(ops.NewArith(ops.Mul, ops.TypeInt))
	u.fetch()
	u.emit(ops.NewArith(ops.Add, ops.TypeInt))
}

// Arith translates an arithmetic annotation (register-to-register).
func (u *Unit) Arith(kind ops.Kind, typ ops.DataType) {
	u.fetch()
	u.emit(ops.NewArith(kind, typ))
}

// labelStride is the code-region granularity of label allocation: each new
// label starts its own 256-byte region, so distinct basic blocks get
// disjoint instruction addresses. Blocks longer than 64 instructions may
// overrun into the next region — an accepted approximation at the
// abstract-instruction level.
const labelStride = 256

// labelAddr resolves (allocating on first use) a code label.
func (u *Unit) labelAddr(name string) uint64 {
	if a, ok := u.labels[name]; ok {
		return a
	}
	a := align(u.codeTop, labelStride)
	u.labels[name] = a
	if top := a + u.target.InstrBytes; top > u.codeTop {
		u.codeTop = top
	}
	return a
}

// label marks a control-flow join/loop-head point: the program counter moves
// to the label's (stable) address, so re-executing the same source region
// re-traces the same instruction addresses.
func (u *Unit) label(name string) {
	u.pc = u.labelAddr(name)
	if u.pc >= u.codeTop {
		u.codeTop = u.pc + u.target.InstrBytes
	}
}

// branch translates a conditional branch annotation. taken selects whether
// control transfers to the label (the trace generator evaluates loop and
// branch conditions itself — the simulator never sees data).
func (u *Unit) branch(name string, taken bool) {
	target := u.labelAddr(name)
	u.fetch()
	u.emit(ops.NewBranch(target))
	if taken {
		u.pc = target
	}
}

// Loop traces a counted loop with a stable head label: body runs n times;
// each iteration ends with the increment/compare arithmetic and a backward
// branch, re-tracing the head's addresses.
func (u *Unit) Loop(name string, n int, body func(i int)) {
	for i := 0; i < n; i++ {
		u.label(name)
		body(i)
		u.Arith(ops.Add, ops.TypeInt) // induction increment
		u.Arith(ops.Sub, ops.TypeInt) // compare against bound
		u.branch(name, false)         // evaluated: fall through on exit
		if i < n-1 {
			u.pc = u.labels[name] // backward branch taken
		}
	}
	if n == 0 {
		// Still trace the test-and-skip.
		u.label(name)
		u.Arith(ops.Sub, ops.TypeInt)
		u.branch(name+":skip", true)
		u.label(name + ":skip")
	}
}

// Communication annotations map directly onto the operations of Table 1
// (§5.1); each also fetches the instruction that issues it.

// Send translates a synchronous send annotation.
func (u *Unit) Send(dst int, size uint32, tag uint32, payload any) {
	u.fetch()
	u.th.Send(dst, size, tag, payload)
}

// ASend translates an asynchronous send annotation.
func (u *Unit) ASend(dst int, size uint32, tag uint32, payload any) {
	u.fetch()
	u.th.ASend(dst, size, tag, payload)
}

// Recv translates a synchronous receive annotation.
func (u *Unit) Recv(src int, tag uint32) any {
	u.fetch()
	return u.th.Recv(src, tag)
}

// RecvAny translates a receive-from-any annotation; the architecture
// simulator feeds back the actual source.
func (u *Unit) RecvAny(tag uint32) (int, any) {
	u.fetch()
	return u.th.RecvAny(tag)
}
