package pearl

import (
	"fmt"
	"strings"
	"testing"
)

func TestProcessHold(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Spawn("holder", func(p *Process) {
		marks = append(marks, k.Now())
		p.Hold(10)
		marks = append(marks, k.Now())
		p.Hold(0)
		marks = append(marks, k.Now())
		p.Hold(5)
		marks = append(marks, k.Now())
	})
	k.Run()
	want := []Time{0, 10, 10, 15}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcessTermination(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("quick", func(p *Process) { p.Hold(3) })
	if p.terminated {
		t.Fatal("terminated before Run")
	}
	k.Run()
	if !p.terminated {
		t.Fatal("not terminated after Run")
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var started Time = -1
	k.SpawnAt(25, "late", func(p *Process) { started = k.Now() })
	k.Run()
	if started != 25 {
		t.Fatalf("started at %d, want 25", started)
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Process) {
		for i := 0; i < 3; i++ {
			order = append(order, fmt.Sprintf("a@%d", k.Now()))
			p.Hold(10)
		}
	})
	k.Spawn("b", func(p *Process) {
		p.Hold(5)
		for i := 0; i < 3; i++ {
			order = append(order, fmt.Sprintf("b@%d", k.Now()))
			p.Hold(10)
		}
	})
	k.Run()
	want := "a@0 b@5 a@10 b@15 a@20 b@25"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Process) {
		p.Hold(1)
		panic("kaput")
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected panic from process")
		}
		if !strings.Contains(fmt.Sprint(v), "kaput") {
			t.Fatalf("panic value %v does not mention cause", v)
		}
	}()
	k.Run()
}

func TestProcessOnPanicHandler(t *testing.T) {
	k := NewKernel()
	var handled any
	p := k.Spawn("boom", func(p *Process) { panic("contained") })
	p.OnPanic = func(v any) { handled = v }
	k.Run()
	if handled != "contained" {
		t.Fatalf("OnPanic got %v, want contained", handled)
	}
}

func TestBlockedDiagnostics(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("never")
	p := k.Spawn("stuck", func(p *Process) { p.Receive(mb) })
	k.Run()
	blocked := k.blocked()
	if len(blocked) != 1 || blocked[0] != p {
		t.Fatalf("Blocked() = %v, want [stuck]", blocked)
	}
	if !strings.Contains(p.blockReason(), "never") {
		t.Fatalf("BlockReason = %q, want mention of mailbox", p.blockReason())
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for i := 0; i < 20; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
				for j := 0; j < 5; j++ {
					p.Hold(Time(1 + (i+j)%7))
					order = append(order, fmt.Sprintf("%d:%d@%d", i, j, k.Now()))
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHoldNegativePanics(t *testing.T) {
	k := NewKernel()
	var recovered any
	p := k.Spawn("neg", func(p *Process) { p.Hold(-1) })
	p.OnPanic = func(v any) { recovered = v }
	k.Run()
	if recovered == nil {
		t.Fatal("expected panic for negative Hold")
	}
}

// Only the running body may block. From an event callback, or from the
// HoldWhile step of another process (called in kernel context after its
// first call), Hold would switch out of a coroutine the caller is not on: it
// panics instead, on the caller of Run, and leaves the victim intact.
func TestBlockingWhileNotRunningPanics(t *testing.T) {
	for name, plant := range map[string]func(k *Kernel, victim *Process){
		"callback": func(k *Kernel, victim *Process) {
			k.After(5, func() { victim.Hold(1) })
		},
		"HoldWhile step": func(k *Kernel, victim *Process) {
			k.Spawn("other", func(p *Process) {
				calls := 0
				p.HoldWhile(func() Step {
					if calls++; calls > 1 {
						victim.Hold(1)
					}
					return Step{Hold: 5}
				})
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			k := NewKernel()
			defer k.Close()
			victim := k.Spawn("victim", func(p *Process) { p.Hold(100) })
			plant(k, victim)
			v := fmt.Sprint(recovered(func() { k.Run() }))
			if !strings.Contains(v, `"victim"`) || !strings.Contains(v, "blocking while not the running process") {
				t.Fatalf("Run panicked with %q; want the victim named, blocking while not the running process", v)
			}
			if k.Now() != 5 {
				t.Errorf("panic surfaced at %d, want 5", k.Now())
			}
			k.Run()
			if !victim.terminated || k.Now() != 100 {
				t.Errorf("resumed run: victim terminated=%v at %d; want its hold to end at 100", victim.terminated, k.Now())
			}
		})
	}
}
