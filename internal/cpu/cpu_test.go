package cpu

import (
	"strings"
	"testing"

	"mermaid/internal/bus"
	"mermaid/internal/cache"
	"mermaid/internal/memory"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
)

func testCPU(t *testing.T) (*pearl.Kernel, *CPU, *cache.Hierarchy) {
	t.Helper()
	k := pearl.NewKernel()
	h, err := cache.NewHierarchy(sim.Env{Kernel: k}, "n", cache.HierarchyConfig{
		CPUs:    1,
		Private: []cache.Config{{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 1, Write: cache.WriteBack}},
		Bus:     bus.Config{Width: 8, ArbitrationDelay: 1},
		Memory:  memory.Config{ReadLatency: 5, WriteLatency: 5, BytesPerCycle: 8, Ports: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, New(0, DefaultTiming(), h.Port(0)), h
}

func run(t *testing.T, k *pearl.Kernel, c *CPU, trace []ops.Op) pearl.Time {
	t.Helper()
	k.Spawn("cpu", func(p *pearl.Process) {
		for _, o := range trace {
			if err := c.Exec(p, o); err != nil {
				t.Errorf("exec %s: %v", o, err)
				return
			}
		}
	})
	return k.Run()
}

func TestArithmeticTiming(t *testing.T) {
	k, c, _ := testCPU(t)
	end := run(t, k, c, []ops.Op{
		ops.NewArith(ops.Add, ops.TypeInt),    // 1
		ops.NewArith(ops.Mul, ops.TypeInt),    // 3
		ops.NewArith(ops.Div, ops.TypeDouble), // 26
	})
	if end != 30 {
		t.Fatalf("end = %d, want 30", end)
	}
	if c.Instructions() != 3 {
		t.Fatalf("instructions = %d", c.Instructions())
	}
}

// l1Counts reads CPU 0's L1 hits and misses from the hierarchy's report.
func l1Counts(t *testing.T, h *cache.Hierarchy) (hits, misses float64) {
	t.Helper()
	l1 := h.StatsSet().Lookup("n.cpu0.L1")
	if l1 == nil {
		t.Fatal("the hierarchy report has no L1")
	}
	hits, _ = l1.Get("hits")
	misses, _ = l1.Get("misses")
	return hits, misses
}

func TestMemoryOpsGoThroughHierarchy(t *testing.T) {
	k, c, h := testCPU(t)
	run(t, k, c, []ops.Op{
		ops.NewLoad(ops.MemWord, 0x1000),
		ops.NewLoad(ops.MemWord, 0x1004),
		ops.NewStore(ops.MemFloat8, 0x1008),
	})
	if hits, misses := l1Counts(t, h); misses != 1 || hits != 2 {
		t.Fatalf("L1 misses=%v hits=%v", misses, hits)
	}
	if c.counts[ops.Load-ops.Load].Value() != 2 || c.counts[ops.Store-ops.Load].Value() != 1 {
		t.Fatal("op counters wrong")
	}
}

func TestIFetchUsesFetchKind(t *testing.T) {
	k, c, h := testCPU(t)
	run(t, k, c, []ops.Op{
		ops.NewIFetch(0x400000),
		ops.NewIFetch(0x400004),
	})
	if hits, misses := l1Counts(t, h); misses != 1 || hits != 1 {
		t.Fatalf("misses=%v hits=%v", misses, hits)
	}
}

func TestControlCosts(t *testing.T) {
	k, c, _ := testCPU(t)
	end := run(t, k, c, []ops.Op{
		ops.NewBranch(0x10), // 1
		ops.NewCall(0x20),   // 2
		ops.NewRet(0x30),    // 2
	})
	if end != 5 {
		t.Fatalf("end = %d, want 5", end)
	}
	// The last kind the CPU counts has a counter of its own.
	if n := c.counts[ops.Ret-ops.Load].Value(); n != 1 {
		t.Fatalf("ret counted %d times, want 1", n)
	}
}

func TestCommOpsRejected(t *testing.T) {
	k, c, _ := testCPU(t)
	var got error
	k.Spawn("cpu", func(p *pearl.Process) {
		got = c.Exec(p, ops.NewSend(64, 1, 0))
	})
	k.Run()
	if got == nil {
		t.Fatal("expected error for communication op")
	}
}

func TestBusyCyclesAndStats(t *testing.T) {
	k, c, _ := testCPU(t)
	run(t, k, c, []ops.Op{
		ops.NewArith(ops.Add, ops.TypeInt),
		ops.NewLoadConst(ops.TypeFloat),
	})
	if c.BusyCycles() != 2 {
		t.Fatalf("busy = %d, want 2", c.BusyCycles())
	}
	s := c.Stats()
	if v, ok := s.Get("instructions"); !ok || v != 2 {
		t.Fatalf("stats instructions = %v", v)
	}
	if v, ok := s.Get("arithmetic ops"); !ok || v != 2 {
		t.Fatalf("arithmetic ops = %v", v)
	}
}

func TestTableOneComputationalOps(t *testing.T) {
	// Every computational op of Table 1 executes without error.
	k, c, _ := testCPU(t)
	var trace []ops.Op
	for _, o := range []ops.Op{
		ops.NewLoad(ops.MemByte, 0), ops.NewLoad(ops.MemHalf, 2), ops.NewLoad(ops.MemWord, 4),
		ops.NewLoad(ops.MemDouble, 8), ops.NewLoad(ops.MemFloat, 16), ops.NewLoad(ops.MemFloat8, 24),
		ops.NewStore(ops.MemWord, 32),
		ops.NewLoadConst(ops.TypeInt), ops.NewLoadConst(ops.TypeFloat),
		ops.NewArith(ops.Add, ops.TypeInt), ops.NewArith(ops.Sub, ops.TypeLong),
		ops.NewArith(ops.Mul, ops.TypeFloat), ops.NewArith(ops.Div, ops.TypeDouble),
		ops.NewIFetch(0x400000), ops.NewBranch(0x400004), ops.NewCall(0x401000), ops.NewRet(0x400008),
	} {
		trace = append(trace, o)
	}
	run(t, k, c, trace)
	if c.Instructions() != uint64(len(trace)) {
		t.Fatalf("executed %d of %d", c.Instructions(), len(trace))
	}
}

func TestZeroCostOpsDoNotAdvanceTime(t *testing.T) {
	k := pearl.NewKernel()
	h, err := cache.NewHierarchy(sim.Env{Kernel: k}, "n", cache.HierarchyConfig{
		CPUs:    1,
		Private: []cache.Config{{Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 0, Write: cache.WriteBack}},
		Bus:     bus.Config{Width: 8},
		Memory:  memory.Config{ReadLatency: 0, WriteLatency: 0, BytesPerCycle: 1024, Ports: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	timing := Timing{} // all zero
	c := New(0, timing, h.Port(0))
	end := run(t, k, c, []ops.Op{ops.NewArith(ops.Add, ops.TypeInt), ops.NewBranch(0)})
	if end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

// Validate writes the default instruction size in place of a zero
// FetchBytes and refuses a negative latency, naming its table entry: a
// negative multiply once ran a matrix product in a third less time and
// reported negative busy cycles.
func TestTimingValidate(t *testing.T) {
	var tm Timing
	if err := tm.Validate(); err != nil || tm != (Timing{FetchBytes: 4}) {
		t.Fatalf("validated zero timing = %+v (%v)", tm, err)
	}
	for entry, edit := range map[string]func(*Timing){
		"Mul.Int":         func(t *Timing) { t.Mul.Int = -30 },
		"Add.Double":      func(t *Timing) { t.Add.Double = -1 },
		"LoadConst.Float": func(t *Timing) { t.LoadConst.Float = -1 },
		"Branch":          func(t *Timing) { t.Branch = -1 },
		"Ret":             func(t *Timing) { t.Ret = -1 },
	} {
		tm := DefaultTiming()
		edit(&tm)
		err := tm.Validate()
		if err == nil || !strings.Contains(err.Error(), "negative "+entry+" ") {
			t.Errorf("negative %s: error %v, want one naming it", entry, err)
		}
	}
}
