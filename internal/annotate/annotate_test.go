package annotate

import (
	"testing"

	"mermaid/internal/ops"
	"mermaid/internal/trace"
)

// collect runs body as a single-threaded instrumented program and returns
// its trace.
func collect(t *testing.T, body func(u *Unit)) []ops.Op {
	t.Helper()
	pr := &trace.Program{
		Threads: 1,
		Body: func(th *trace.Thread) {
			body(New(th, GenericTarget()))
		},
	}
	th := pr.Start()[0]
	got, err := trace.Collect(th)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range got {
		if err := o.Validate(); err != nil {
			t.Fatalf("invalid op %v: %v", o, err)
		}
	}
	return got
}

func TestGlobalAllocation(t *testing.T) {
	collect(t, func(u *Unit) {
		a := u.Global("a", ops.MemWord)
		b := u.Global("b", ops.MemByte)
		c := u.Global("c", ops.MemFloat8)
		if a.Addr != u.target.GlobalBase {
			t.Errorf("a at %#x", a.Addr)
		}
		if b.Addr != a.Addr+4 {
			t.Errorf("b at %#x", b.Addr)
		}
		if c.Addr%8 != 0 || c.Addr < b.Addr {
			t.Errorf("c at %#x, want 8-aligned after b", c.Addr)
		}
		if a.Class != global || a.InReg {
			t.Error("global misclassified")
		}
	})
}

func TestStackGrowsDown(t *testing.T) {
	collect(t, func(u *Unit) {
		u.Enter("f")
		defer u.Leave()
		x := u.LocalArray("x", ops.MemWord, 8) // arrays never in registers
		y := u.LocalArray("y", ops.MemWord, 8)
		if x.Addr >= u.target.StackBase {
			t.Errorf("x at %#x, above stack base", x.Addr)
		}
		if y.Addr >= x.Addr {
			t.Errorf("y at %#x not below x at %#x", y.Addr, x.Addr)
		}
		if x.InReg || y.InReg {
			t.Error("array in register")
		}
	})
}

func TestRegisterAllocation(t *testing.T) {
	collect(t, func(u *Unit) {
		u.Enter("f")
		defer u.Leave()
		// GenericTarget: 4 register locals.
		var locals []*Var
		for i := 0; i < 6; i++ {
			locals = append(locals, u.Local(string(rune('a'+i)), ops.MemWord))
		}
		for i, v := range locals {
			if (i < 4) != v.InReg {
				t.Errorf("local %d InReg = %v", i, v.InReg)
			}
		}
	})
}

func TestLoadRegisterVarEmitsNoMemoryOp(t *testing.T) {
	got := collect(t, func(u *Unit) {
		u.Enter("f")
		defer u.Leave()
		r := u.Local("r", ops.MemWord) // register
		m := u.LocalArray("m", ops.MemWord, 2)
		u.Load(r)
		u.Load(m) // array base treated as memory variable
	})
	var loads, fetches int
	for _, o := range got {
		switch o.Kind {
		case ops.Load:
			loads++
		case ops.IFetch:
			fetches++
		}
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1 (register var elided)", loads)
	}
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2 (every annotation fetches)", fetches)
	}
}

func TestLoopRecurringFetchAddresses(t *testing.T) {
	got := collect(t, func(u *Unit) {
		g := u.Global("g", ops.MemWord)
		u.Loop("L", 3, func(i int) {
			u.Load(g)
			u.Arith(ops.Add, ops.TypeInt)
		})
	})
	// Extract per-iteration ifetch address sequences.
	var iters [][]uint64
	var cur []uint64
	for _, o := range got {
		if o.Kind == ops.IFetch {
			cur = append(cur, o.Addr)
		}
		if o.Kind == ops.Branch {
			iters = append(iters, cur)
			cur = nil
		}
	}
	if len(iters) != 3 {
		t.Fatalf("iterations = %d", len(iters))
	}
	for i := 1; i < 3; i++ {
		if len(iters[i]) != len(iters[0]) {
			t.Fatalf("iteration %d has %d fetches, want %d", i, len(iters[i]), len(iters[0]))
		}
		for j := range iters[0] {
			if iters[i][j] != iters[0][j] {
				t.Fatalf("iteration %d fetch %d at %#x, want recurring %#x",
					i, j, iters[i][j], iters[0][j])
			}
		}
	}
}

func TestBranchTargetsLabel(t *testing.T) {
	got := collect(t, func(u *Unit) {
		u.label("head")
		u.Arith(ops.Add, ops.TypeInt)
		u.branch("head", true)
		u.Arith(ops.Sub, ops.TypeInt) // after taken branch: pc back at head
	})
	var branch ops.Op
	var fetches []uint64
	for _, o := range got {
		if o.Kind == ops.Branch {
			branch = o
		}
		if o.Kind == ops.IFetch {
			fetches = append(fetches, o.Addr)
		}
	}
	if branch.Kind != ops.Branch {
		t.Fatal("no branch emitted")
	}
	if branch.Addr != fetches[0] {
		t.Fatalf("branch target %#x, want label address %#x", branch.Addr, fetches[0])
	}
	// The post-branch fetch must be back at the head address.
	if fetches[len(fetches)-1] != fetches[0] {
		t.Fatalf("taken branch did not return pc to head")
	}
}

func TestLoadElemEmitsAddressArithmetic(t *testing.T) {
	got := collect(t, func(u *Unit) {
		a := u.GlobalArray("A", ops.MemFloat8, 10)
		u.LoadElem(a, 3)
	})
	var mul, add, load int
	var loadAddr uint64
	for _, o := range got {
		switch o.Kind {
		case ops.Mul:
			mul++
		case ops.Add:
			add++
		case ops.Load:
			load++
			loadAddr = o.Addr
		}
	}
	if mul != 1 || add != 1 || load != 1 {
		t.Fatalf("mul=%d add=%d load=%d", mul, add, load)
	}
	base := GenericTarget().GlobalBase
	if loadAddr != base+3*8 {
		t.Fatalf("element address %#x, want %#x", loadAddr, base+3*8)
	}
}

func TestElemOutOfBoundsPanics(t *testing.T) {
	pr := &trace.Program{
		Threads: 1,
		Body: func(th *trace.Thread) {
			u := New(th, GenericTarget())
			a := u.GlobalArray("A", ops.MemWord, 4)
			u.LoadElem(a, 4)
		},
	}
	th := pr.Start()[0]
	if _, err := trace.Collect(th); err == nil {
		t.Fatal("expected out-of-bounds panic surfaced as error")
	}
}

func TestZeroIterationLoop(t *testing.T) {
	got := collect(t, func(u *Unit) {
		u.Loop("L", 0, func(i int) { t.Error("body must not run") })
	})
	if len(got) == 0 {
		t.Fatal("zero-iteration loop should still trace the test")
	}
}

func TestLeaveWithoutEnterPanics(t *testing.T) {
	pr := &trace.Program{
		Threads: 1,
		Body: func(th *trace.Thread) {
			New(th, GenericTarget()).Leave()
		},
	}
	th := pr.Start()[0]
	if _, err := trace.Collect(th); err == nil {
		t.Fatal("expected panic surfaced as error")
	}
}

func TestNestedLoopsRecurringAddresses(t *testing.T) {
	got := collect(t, func(u *Unit) {
		u.Loop("outer", 2, func(i int) {
			u.Arith(ops.Add, ops.TypeInt)
			u.Loop("inner", 3, func(j int) {
				u.Arith(ops.Mul, ops.TypeInt)
			})
		})
	})
	// Collect ifetch addrs of all Mul ops (inner body): must cycle over the
	// same address in every inner iteration, across both outer iterations.
	var mulFetches []uint64
	var lastFetch uint64
	for _, o := range got {
		if o.Kind == ops.IFetch {
			lastFetch = o.Addr
		}
		if o.Kind == ops.Mul {
			mulFetches = append(mulFetches, lastFetch)
		}
	}
	if len(mulFetches) != 6 {
		t.Fatalf("inner body ran %d times", len(mulFetches))
	}
	for _, a := range mulFetches[1:] {
		if a != mulFetches[0] {
			t.Fatalf("inner loop fetches not recurring: %v", mulFetches)
		}
	}
}

func TestSharedSegmentAddresses(t *testing.T) {
	collect(t, func(u *Unit) {
		s := u.SharedArray("s", ops.MemWord, 1)
		if s.Addr != u.target.SharedBase {
			t.Errorf("shared at %#x, want base %#x", s.Addr, u.target.SharedBase)
		}
		a := u.SharedArray("arr", ops.MemFloat8, 4)
		if a.Addr < s.Addr || a.Addr%8 != 0 {
			t.Errorf("shared array at %#x", a.Addr)
		}
		// Loads of shared vars emit plain load operations at shared
		// addresses; the DSM layer (not the translator) handles remoteness.
		u.Load(s)
	})
}

func TestSharedWithoutSegmentPanics(t *testing.T) {
	pr := &trace.Program{
		Threads: 1,
		Body: func(th *trace.Thread) {
			tgt := GenericTarget()
			tgt.SharedBase = 0
			New(th, tgt).SharedArray("x", ops.MemWord, 1)
		},
	}
	th := pr.Start()[0]
	if _, err := trace.Collect(th); err == nil {
		t.Fatal("expected panic surfaced as error")
	}
}

func TestStoreAnnotations(t *testing.T) {
	got := collect(t, func(u *Unit) {
		g := u.Global("g", ops.MemWord)
		arr := u.GlobalArray("A", ops.MemWord, 4)
		u.Store(g)
		u.StoreElem(arr, 2)
	})
	stores := 0
	for _, o := range got {
		if o.Kind == ops.Store {
			stores++
		}
	}
	if stores != 2 {
		t.Fatalf("stores=%d", stores)
	}
}

// serveGlobals drains a thread's events, answering global events with the
// given feedback — a miniature simulator for in-package tests.
func serveGlobals(t *testing.T, th *trace.Thread, fb trace.Feedback) []ops.Op {
	t.Helper()
	var out []ops.Op
	for {
		ev, err := th.Next()
		if err != nil {
			return out
		}
		out = append(out, ev.Op)
		if ev.Resume != nil {
			ev.Resume(fb)
		}
	}
}

func TestCommunicationAnnotations(t *testing.T) {
	pr := &trace.Program{
		Threads: 1,
		Body: func(th *trace.Thread) {
			u := New(th, GenericTarget())
			u.Send(0, 64, 1, "x")
			u.ASend(0, 32, 2, nil)
			u.Recv(0, 1)
			u.RecvAny(2)
		},
	}
	th := pr.Start()[0]
	got := serveGlobals(t, th, trace.Feedback{Peer: 0})
	counts := map[ops.Kind]int{}
	for _, o := range got {
		counts[o.Kind]++
	}
	if counts[ops.Send] != 1 || counts[ops.ASend] != 1 || counts[ops.Recv] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// Every communication annotation fetched its issuing instruction.
	if counts[ops.IFetch] != 4 {
		t.Fatalf("ifetches = %d, want 4", counts[ops.IFetch])
	}
}

func TestTargetsChangeTranslation(t *testing.T) {
	// The same annotated source yields different operation streams per
	// target: a stack machine (no register locals, like the T805) spills
	// scalars a register machine keeps in registers — "the translation of
	// annotations according to the runtime and addressing capabilities of
	// the target processor" (§5.1).
	countMemOps := func(tgt Target) int {
		pr := &trace.Program{
			Threads: 1,
			Body: func(th *trace.Thread) {
				u := New(th, tgt)
				u.Enter("f")
				defer u.Leave()
				x := u.Local("x", ops.MemWord)
				for i := 0; i < 5; i++ {
					u.Load(x)
					u.Arith(ops.Add, ops.TypeInt)
					u.Store(x)
				}
			},
		}
		th := pr.Start()[0]
		got, err := trace.Collect(th)
		if err != nil {
			t.Fatal(err)
		}
		mem := 0
		for _, o := range got {
			if o.Kind.IsMemoryAccess() {
				mem++
			}
		}
		return mem
	}
	stack := GenericTarget()
	stack.RegisterLocals = 0
	if got := countMemOps(stack); got != 10 {
		t.Fatalf("stack machine memory ops = %d, want 10 (workspace-resident scalar)", got)
	}
	if got := countMemOps(GenericTarget()); got != 0 {
		t.Fatalf("register machine memory ops = %d, want 0 (register-resident scalar)", got)
	}
}
