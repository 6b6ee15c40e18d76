// Package ops defines the trace events — called operations — that drive the
// Mermaid architecture simulators, exactly following Table 1 of the paper.
//
// Operations come in two families:
//
//   - Computational operations are abstract machine instructions for a
//     load-store architecture: memory transfers between registers and the
//     memory hierarchy, register-only arithmetic, and instruction fetching.
//     They drive the single-node computational model. Because they abstract
//     from a real instruction set, the same simulator serves any processor,
//     and no data values (and no register numbers) are carried.
//
//   - Communication operations are straightforward message passing, both
//     synchronous (blocking) and asynchronous, plus the task-level compute
//     operation that summarises a computational phase by its duration. They
//     drive the multi-node communication model.
package ops

import "fmt"

// Kind identifies an operation.
type Kind uint8

// Computational operations (abstract machine instructions, Table 1 top).
const (
	invalid Kind = iota

	// Category 1: transferring data between registers and the memory
	// hierarchy.
	Load      // load(mem-type, address)
	Store     // store(mem-type, address)
	LoadConst // load([f]constant): immediate into register

	// Category 2: arithmetic, operating solely on registers.
	Add
	Sub
	Mul
	Div

	// Category 3: instruction fetching.
	IFetch // ifetch(address)
	Branch // branch(address)
	Call   // call(address)
	Ret    // ret(address)

	// Communication operations (Table 1 bottom).
	Send    // send(message-size, destination): synchronous (blocking)
	Recv    // recv(source): synchronous (blocking)
	ASend   // asend(message-size, destination): asynchronous
	ARecv   // arecv(source): asynchronous
	Compute // compute(duration): task-level computation

	// WaitRecv is a pseudo-operation, not part of Table 1: it marks the
	// completion point of an earlier arecv (Addr holds the arecv's handle).
	// The trace generator emits it where the application consumes the data,
	// so the simulator knows the thread is suspended in simulated time.
	WaitRecv

	numKinds
)

// NumKinds is the number of defined operation kinds (excluding invalid).
const NumKinds = int(numKinds) - 1

var kindNames = [...]string{
	invalid:   "invalid",
	Load:      "load",
	Store:     "store",
	LoadConst: "loadc",
	Add:       "add",
	Sub:       "sub",
	Mul:       "mul",
	Div:       "div",
	IFetch:    "ifetch",
	Branch:    "branch",
	Call:      "call",
	Ret:       "ret",
	Send:      "send",
	Recv:      "recv",
	ASend:     "asend",
	ARecv:     "arecv",
	Compute:   "compute",
	WaitRecv:  "waitrecv",
}

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsComputational reports whether the kind is an abstract machine instruction
// (simulated by the single-node computational model).
func (k Kind) IsComputational() bool { return k >= Load && k <= Ret }

// IsCommunication reports whether the kind is a message-passing or task-level
// operation (simulated by the multi-node communication model).
func (k Kind) IsCommunication() bool { return k >= Send && k <= WaitRecv }

// IsGlobalEvent reports whether the operation can influence the execution
// behaviour of more than one processor. Global events are the suspension
// points of the physical-time-interleaved trace generation: a generator
// thread must not run past one until the simulator has caught every other
// thread up to the same simulated time.
func (k Kind) IsGlobalEvent() bool {
	return (k >= Send && k <= ARecv) || k == WaitRecv
}

// IsMemoryAccess reports whether the operation accesses the memory hierarchy
// (data side).
func (k Kind) IsMemoryAccess() bool { return k == Load || k == Store }

// IsArithmetic reports whether the operation is a register-only arithmetic
// function.
func (k Kind) IsArithmetic() bool { return k >= Add && k <= Div }

// IsControl reports whether the operation belongs to the instruction-fetch
// category (control transfers and fetches).
func (k Kind) IsControl() bool { return k >= IFetch && k <= Ret }

// MemType is the width/type of a memory access (the mem-type parameter of
// load and store).
type MemType uint8

const (
	MemNone   MemType = iota
	MemByte           // 1 byte
	MemHalf           // 2 bytes
	MemWord           // 4 bytes
	MemDouble         // 8 bytes (long/pointer on 64-bit targets)
	MemFloat          // 4-byte IEEE float
	MemFloat8         // 8-byte IEEE double

	numMemTypes
)

var memTypeNames = [...]string{
	MemNone:   "-",
	MemByte:   "b",
	MemHalf:   "h",
	MemWord:   "w",
	MemDouble: "d",
	MemFloat:  "f",
	MemFloat8: "g",
}

// String returns the single-letter mnemonic for the memory type.
func (m MemType) String() string {
	if int(m) < len(memTypeNames) {
		return memTypeNames[m]
	}
	return fmt.Sprintf("mem(%d)", uint8(m))
}

// Size returns the access width in bytes.
func (m MemType) Size() uint64 {
	switch m {
	case MemByte:
		return 1
	case MemHalf:
		return 2
	case MemWord, MemFloat:
		return 4
	case MemDouble, MemFloat8:
		return 8
	}
	return 0
}

// DataType is the operand type of an arithmetic operation or constant load
// (the type parameter of add/sub/mul/div and the [f] of load constant).
type DataType uint8

const (
	typeNone DataType = iota
	TypeInt           // integer word
	TypeLong          // double-width integer
	TypeFloat
	TypeDouble

	numDataTypes
)

var dataTypeNames = [...]string{
	typeNone:   "-",
	TypeInt:    "i",
	TypeLong:   "l",
	TypeFloat:  "f",
	TypeDouble: "d",
}

// String returns the single-letter mnemonic for the data type.
func (d DataType) String() string {
	if int(d) < len(dataTypeNames) {
		return dataTypeNames[d]
	}
	return fmt.Sprintf("type(%d)", uint8(d))
}

// AnyPeer, as the Peer of a recv/arecv operation, matches a message from any
// source; the architecture simulator feeds back which source was actually
// observed first on the target machine (execution-driven simulation).
const AnyPeer int32 = -1

// Op is one trace event. Field use depends on Kind:
//
//	Load/Store:   Mem, Addr
//	LoadConst:    Data
//	Add..Div:     Data
//	IFetch:       Addr (instruction address)
//	Branch/Call/Ret: Addr (target address)
//	Send/ASend:   Size (bytes), Peer (destination node), Tag
//	Recv/ARecv:   Peer (source node or AnyPeer), Tag
//	Compute:      Dur (cycles)
//
// Operations carry no data values: the simulator never interprets memory
// contents, so caches need only hold tags and the memory needs no backing
// store.
type Op struct {
	Kind Kind
	Mem  MemType
	Data DataType
	Addr uint64
	Size uint32
	Peer int32
	Tag  uint32
	Dur  int64
}

// String renders the operation for a human reader, e.g. "load w 0x1f00",
// "add i", "send 1024 -> 3", "compute 500". It is a write-only debug dump:
// traces are read only in the binary encoding.
func (o Op) String() string {
	switch o.Kind {
	case Load, Store:
		return fmt.Sprintf("%s %s %#x", o.Kind, o.Mem, o.Addr)
	case LoadConst, Add, Sub, Mul, Div:
		return fmt.Sprintf("%s %s", o.Kind, o.Data)
	case IFetch, Branch, Call, Ret:
		return fmt.Sprintf("%s %#x", o.Kind, o.Addr)
	case Send, ASend:
		return fmt.Sprintf("%s %d -> %d tag %d", o.Kind, o.Size, o.Peer, o.Tag)
	case Recv, ARecv:
		if o.Peer == AnyPeer {
			return fmt.Sprintf("%s <- any tag %d", o.Kind, o.Tag)
		}
		return fmt.Sprintf("%s <- %d tag %d", o.Kind, o.Peer, o.Tag)
	case Compute:
		return fmt.Sprintf("%s %d", o.Kind, o.Dur)
	case WaitRecv:
		return fmt.Sprintf("%s %d", o.Kind, o.Addr)
	}
	return o.Kind.String()
}

// Validate checks structural well-formedness of the operation, returning a
// descriptive error for malformed events (unknown kind, missing mem-type,
// negative duration, …). Simulators validate on input so that corrupt traces
// fail fast.
func (o Op) Validate() error {
	switch o.Kind {
	case Load, Store:
		if o.Mem == MemNone || o.Mem >= numMemTypes {
			return fmt.Errorf("ops: %s without valid mem-type", o.Kind)
		}
	case LoadConst, Add, Sub, Mul, Div:
		if o.Data == typeNone || o.Data >= numDataTypes {
			return fmt.Errorf("ops: %s without valid data type", o.Kind)
		}
	case IFetch, Branch, Call, Ret:
		// Any address is permissible.
	case Send, ASend:
		if o.Peer < 0 {
			return fmt.Errorf("ops: %s with negative destination %d", o.Kind, o.Peer)
		}
		if o.Size == 0 {
			return fmt.Errorf("ops: %s with zero message size", o.Kind)
		}
	case Recv, ARecv:
		if o.Peer < 0 && o.Peer != AnyPeer {
			return fmt.Errorf("ops: %s with invalid source %d", o.Kind, o.Peer)
		}
	case Compute:
		if o.Dur < 0 {
			return fmt.Errorf("ops: compute with negative duration %d", o.Dur)
		}
	case WaitRecv:
		// Addr is the handle of the arecv being completed; any value works.
	default:
		return fmt.Errorf("ops: unknown kind %d", uint8(o.Kind))
	}
	return nil
}

// Constructors for each operation of Table 1.

// NewLoad builds a load(mem-type, address) operation.
func NewLoad(m MemType, addr uint64) Op { return Op{Kind: Load, Mem: m, Addr: addr} }

// NewStore builds a store(mem-type, address) operation.
func NewStore(m MemType, addr uint64) Op { return Op{Kind: Store, Mem: m, Addr: addr} }

// NewLoadConst builds a load([f]constant) operation.
func NewLoadConst(d DataType) Op { return Op{Kind: LoadConst, Data: d} }

// NewArith builds an arithmetic operation of the given kind (Add..Div).
func NewArith(k Kind, d DataType) Op {
	if !k.IsArithmetic() {
		panic("ops: NewArith with non-arithmetic kind " + k.String())
	}
	return Op{Kind: k, Data: d}
}

// NewIFetch builds an ifetch(address) operation.
func NewIFetch(addr uint64) Op { return Op{Kind: IFetch, Addr: addr} }

// NewBranch builds a branch(address) operation.
func NewBranch(addr uint64) Op { return Op{Kind: Branch, Addr: addr} }

// NewCall builds a call(address) operation.
func NewCall(addr uint64) Op { return Op{Kind: Call, Addr: addr} }

// NewRet builds a ret(address) operation.
func NewRet(addr uint64) Op { return Op{Kind: Ret, Addr: addr} }

// NewSend builds a synchronous send(message-size, destination).
func NewSend(size uint32, dst int32, tag uint32) Op {
	return Op{Kind: Send, Size: size, Peer: dst, Tag: tag}
}

// NewRecv builds a synchronous recv(source).
func NewRecv(src int32, tag uint32) Op { return Op{Kind: Recv, Peer: src, Tag: tag} }

// NewASend builds an asynchronous asend(message-size, destination).
func NewASend(size uint32, dst int32, tag uint32) Op {
	return Op{Kind: ASend, Size: size, Peer: dst, Tag: tag}
}

// NewARecv builds an asynchronous arecv(source).
func NewARecv(src int32, tag uint32) Op { return Op{Kind: ARecv, Peer: src, Tag: tag} }

// NewCompute builds a task-level compute(duration) operation.
func NewCompute(dur int64) Op { return Op{Kind: Compute, Dur: dur} }

// NewWaitRecv builds the completion pseudo-operation for the arecv with the
// given handle.
func NewWaitRecv(handle uint64) Op { return Op{Kind: WaitRecv, Addr: handle} }
