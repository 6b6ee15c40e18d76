// Package cpu models the CPU component of the single-node architecture
// template (Fig. 3a): a processor that executes the abstract machine
// instructions of Table 1 on a load-store register architecture. Because the
// operations abstract from any real instruction set, one CPU model serves
// every simulated processor; only its timing table changes. The deliberate
// loss of information (no register identities, no data values) precludes
// cycle-accurate pipeline simulation — as the paper notes — in exchange for
// simulation speed.
package cpu

import (
	"fmt"

	"mermaid/internal/cache"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

// ArithTiming gives the latency of one arithmetic operation per operand
// type.
type ArithTiming struct {
	Int    pearl.Time
	Long   pearl.Time
	Float  pearl.Time
	Double pearl.Time
}

func (a ArithTiming) forType(d ops.DataType) pearl.Time {
	switch d {
	case ops.TypeInt:
		return a.Int
	case ops.TypeLong:
		return a.Long
	case ops.TypeFloat:
		return a.Float
	case ops.TypeDouble:
		return a.Double
	}
	return a.Int
}

// Timing is the machine-parameter table of a CPU model, calibrated per
// target processor from published information or benchmarking (§3).
type Timing struct {
	Add ArithTiming
	Sub ArithTiming
	Mul ArithTiming
	Div ArithTiming
	// LoadConst is the cost of materialising an immediate.
	LoadConst ArithTiming
	// Branch, Call and Ret are the control-transfer costs on top of the
	// instruction fetches appearing in the trace.
	Branch pearl.Time
	Call   pearl.Time
	Ret    pearl.Time
	// FetchBytes is the instruction size used for ifetch memory accesses;
	// zero means 4.
	FetchBytes uint32
}

// DefaultTiming returns a generic single-issue RISC timing model.
func DefaultTiming() Timing {
	return Timing{
		Add:        ArithTiming{Int: 1, Long: 1, Float: 3, Double: 3},
		Sub:        ArithTiming{Int: 1, Long: 1, Float: 3, Double: 3},
		Mul:        ArithTiming{Int: 3, Long: 3, Float: 4, Double: 5},
		Div:        ArithTiming{Int: 18, Long: 18, Float: 20, Double: 26},
		LoadConst:  ArithTiming{Int: 1, Long: 1, Float: 1, Double: 1},
		Branch:     1,
		Call:       2,
		Ret:        2,
		FetchBytes: 4,
	}
}

// Validate fills the default of a zero FetchBytes and refuses a negative
// latency, naming its entry.
func (t *Timing) Validate() error {
	for _, a := range []struct {
		name string
		t    ArithTiming
	}{{"Add", t.Add}, {"Sub", t.Sub}, {"Mul", t.Mul}, {"Div", t.Div}, {"LoadConst", t.LoadConst}} {
		for _, e := range []struct {
			typ string
			lat pearl.Time
		}{{"Int", a.t.Int}, {"Long", a.t.Long}, {"Float", a.t.Float}, {"Double", a.t.Double}} {
			if e.lat < 0 {
				return fmt.Errorf("cpu: negative %s.%s latency %d", a.name, e.typ, e.lat)
			}
		}
	}
	for _, e := range []struct {
		name string
		lat  pearl.Time
	}{{"Branch", t.Branch}, {"Call", t.Call}, {"Ret", t.Ret}} {
		if e.lat < 0 {
			return fmt.Errorf("cpu: negative %s latency %d", e.name, e.lat)
		}
	}
	if t.FetchBytes == 0 {
		t.FetchBytes = 4
	}
	return nil
}

// CPU executes abstract machine instructions against a memory hierarchy
// port. It is passive and never blocks anyone itself: Begin starts an
// operation and Step says what it has to wait for next, for an owner that
// does the waiting — the node model's runner chain, or Exec, the blocking
// form for a pearl.Process. One CPU executes one operation at a time: every
// accepted Begin is followed by Steps up to the one that reports Done.
type CPU struct {
	id     int
	timing Timing
	port   *cache.Port
	step   func() pearl.Step // Step, bound once

	counts   [ops.Ret - ops.Load + 1]stats.Counter // retired operations by kind, Load first
	instrs   uint64
	busy     pearl.Time
	memStall pearl.Time

	// The operation between Begin and its last Step: its kind and, unless it
	// goes through the port, its latency and whether that has been held for.
	kind    ops.Kind
	latency pearl.Time
	held    bool
}

// New creates a CPU with the given timing, issuing memory accesses through
// port. The timing is taken as given, as Validate leaves it.
func New(id int, timing Timing, port *cache.Port) *CPU {
	c := &CPU{id: id, timing: timing, port: port}
	c.step = c.Step
	return c
}

// Instructions returns the number of operations executed.
func (c *CPU) Instructions() uint64 { return c.instrs }

// BusyCycles returns the total simulated time spent executing operations.
func (c *CPU) BusyCycles() pearl.Time { return c.busy }

// MemStallCycles returns the part of BusyCycles spent inside the memory
// hierarchy (loads, stores and instruction fetches, including cache misses
// and bus/DRAM queueing). BusyCycles minus MemStallCycles is pure compute.
func (c *CPU) MemStallCycles() pearl.Time { return c.memStall }

// usesPort reports whether the operation goes through the memory hierarchy:
// loads, stores and — unlike ops.Kind.IsMemoryAccess, which is the data side
// only — instruction fetches.
func usesPort(k ops.Kind) bool { return k == ops.Load || k == ops.Store || k == ops.IFetch }

// memAccess translates a memory operation into its hierarchy access.
func (c *CPU) memAccess(o ops.Op) (k cache.AccessKind, addr, size uint64) {
	switch o.Kind {
	case ops.Store:
		return cache.Write, o.Addr, o.Mem.Size()
	case ops.IFetch:
		return cache.Fetch, o.Addr, uint64(c.timing.FetchBytes)
	}
	return cache.Read, o.Addr, o.Mem.Size()
}

// Begin starts a computational operation — the timing table lives here and
// nowhere else — which then proceeds through Step. It declines (false,
// nothing changed) anything that is not a computational operation.
func (c *CPU) Begin(o ops.Op) bool {
	switch o.Kind {
	case ops.Load, ops.Store, ops.IFetch:
		c.port.Begin(c.memAccess(o))
	case ops.LoadConst:
		c.latency = c.timing.LoadConst.forType(o.Data)
	case ops.Add:
		c.latency = c.timing.Add.forType(o.Data)
	case ops.Sub:
		c.latency = c.timing.Sub.forType(o.Data)
	case ops.Mul:
		c.latency = c.timing.Mul.forType(o.Data)
	case ops.Div:
		c.latency = c.timing.Div.forType(o.Data)
	case ops.Branch:
		c.latency = c.timing.Branch
	case ops.Call:
		c.latency = c.timing.Call
	case ops.Ret:
		c.latency = c.timing.Ret
	default:
		return false
	}
	c.kind, c.held = o.Kind, false
	return true
}

// Step returns the hold or resource wait the operation in flight needs next,
// to be called again when that has been served. With the last wait over it
// retires the operation — counts it and attributes its time to compute or,
// for a memory access, to memory stall — and reports Done.
func (c *CPU) Step() pearl.Step {
	if usesPort(c.kind) {
		s, latency := c.port.Step()
		if s.Done {
			c.retire(latency)
			c.memStall += latency
		}
		return s
	}
	if !c.held && c.latency > 0 {
		c.held = true
		return pearl.Step{Hold: c.latency}
	}
	c.retire(c.latency)
	return pearl.Step{Done: true}
}

func (c *CPU) retire(latency pearl.Time) {
	c.counts[c.kind-ops.Load].Inc()
	c.instrs++
	c.busy += latency
}

// Exec executes one computational operation, blocking p for its latency
// (including the memory hierarchy for loads, stores and fetches).
// Communication operations are not accepted here: the node model routes them
// to the communication model, as in Fig. 2.
func (c *CPU) Exec(p *pearl.Process, o ops.Op) error {
	if !c.Begin(o) {
		return fmt.Errorf("cpu %d: %s is not a computational operation", c.id, o.Kind)
	}
	p.HoldWhile(c.step)
	return nil
}

// Stats reports instruction counts by category.
func (c *CPU) Stats() *stats.Set {
	s := stats.NewSet(fmt.Sprintf("cpu%d", c.id))
	s.PutUint("instructions", c.instrs, "")
	s.PutInt("busy", int64(c.busy), "cyc")
	var mem, arith, ctl uint64
	for k := ops.Load; k <= ops.Ret; k++ {
		n := c.counts[k-ops.Load].Value()
		if n == 0 {
			continue
		}
		s.PutUint(k.String(), n, "")
		switch {
		case k.IsMemoryAccess():
			mem += n
		case k.IsArithmetic() || k == ops.LoadConst:
			arith += n
		case k.IsControl():
			ctl += n
		}
	}
	s.PutUint("memory ops", mem, "")
	s.PutUint("arithmetic ops", arith, "")
	s.PutUint("control ops", ctl, "")
	if c.busy > 0 {
		s.Put("ops per cycle", float64(c.instrs)/float64(c.busy), "")
	}
	return s
}
