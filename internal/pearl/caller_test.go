package pearl

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Process bodies run on coroutines of their own, but everything a caller of
// Run can observe — where a panic surfaces, where OnPanic runs, what Blocked
// reports — must be as if the kernel alone ran on the caller's goroutine.

// goid returns the calling goroutine's id, for telling goroutines apart.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// recovered runs fn and returns what it panicked with, nil if it did not.
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// waiting builds a run where process "waiter" has blocked, its body parked
// on its own coroutine, when then() fires.
func waiting(k *Kernel, then func()) {
	k.Spawn("waiter", func(p *Process) { p.Hold(100) })
	k.After(10, then)
}

func TestBodyPanicSurfacesOnCaller(t *testing.T) {
	k := NewKernel()
	var order []string
	waiting(k, func() {
		k.Spawn("boom", func(p *Process) { panic("kaput") })
		k.After(0, func() { order = append(order, "same instant, later seq") })
	})
	v := recovered(func() { k.Run() })
	if v == nil || !strings.Contains(fmt.Sprint(v), "kaput") || !strings.Contains(fmt.Sprint(v), `"boom"`) {
		t.Fatalf("Run panicked with %v; want the body's panic, naming the process", v)
	}
	if k.Now() != 10 {
		t.Errorf("clock at %d after the panic, want 10", k.Now())
	}
	// The run is resumable: nothing fired between the panic and its
	// surfacing.
	if len(order) != 0 {
		t.Errorf("events fired after the panicking body and before the panic surfaced: %v", order)
	}
	k.Run()
	if k.Now() != 100 || len(order) != 1 {
		t.Errorf("resumed run ended at %d with %v; want 100 and the pending callback fired", k.Now(), order)
	}
}

func TestOnPanicRunsOnCaller(t *testing.T) {
	k := NewKernel()
	caller := goid()
	var handledOn string
	var handled any
	waiting(k, func() {
		p := k.Spawn("boom", func(p *Process) {
			p.Hold(5)
			panic("contained")
		})
		p.OnPanic = func(v any) { handled, handledOn = v, goid() }
	})
	k.Run()
	if handled != "contained" {
		t.Fatalf("OnPanic got %v, want contained", handled)
	}
	if handledOn != caller {
		t.Errorf("OnPanic ran on goroutine %s, the caller of Run is %s", handledOn, caller)
	}
	if k.Now() != 100 {
		t.Errorf("run ended at %d; a handled panic must not end it (want 100)", k.Now())
	}
}

func TestShardGroupPanicsSurfaceOnCoordinator(t *testing.T) {
	for name, plant := range map[string]func(k *Kernel){
		"body": func(k *Kernel) {
			waiting(k, func() { k.Spawn("boom", func(p *Process) { panic("shard kaput") }) })
		},
		"callback": func(k *Kernel) {
			waiting(k, func() { panic("shard kaput") })
		},
	} {
		t.Run(name, func(t *testing.T) {
			g := NewShardGroup(2, 5)
			g.Kernel(0).Spawn("bystander", func(p *Process) { p.Hold(50) })
			plant(g.Kernel(1))
			v := recovered(func() { g.Run() })
			if v == nil || !strings.Contains(fmt.Sprint(v), "shard kaput") {
				t.Fatalf("ShardGroup.Run panicked with %v; want the shard's panic", v)
			}
			for i := 0; i < g.Shards(); i++ {
				g.Kernel(i).Close()
			}
		})
	}
}

func TestBlockedAfterRelayedDeadlock(t *testing.T) {
	k := NewKernel()
	never := k.NewMailbox("never")
	res := k.NewResource("unit", 1)
	k.Spawn("a", func(p *Process) { p.Receive(never) })
	k.Spawn("b", func(p *Process) {
		p.wait(Step{Acquire: res})
		p.Hold(10)
		p.Receive(never)
	})
	k.Spawn("c", func(p *Process) {
		p.Hold(5)
		p.wait(Step{Acquire: res}) // b never releases
	})
	k.Spawn("fine", func(p *Process) { p.Hold(20) })
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	var got []string
	for _, p := range k.blocked() {
		got = append(got, p.name+": "+p.blockReason())
	}
	want := "[a: receive never b: receive never c: acquire unit]"
	if fmt.Sprint(got) != want {
		t.Errorf("Blocked() = %v, want %v", got, want)
	}
	k.Close()
	if fmt.Sprint(len(k.blocked())) != "3" {
		t.Errorf("Close changed what Blocked reports: %v", k.blocked())
	}
}

// settle waits for the goroutine count to come down to want: Close ends the
// coroutines of parked bodies before it returns, but goroutines of earlier
// tests (shard workers) may not have left the scheduler's books yet.
func settle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseReapsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	requests := k.NewMailbox("requests")
	var unwound []string
	spawn := func(name string, body func(p *Process)) {
		k.Spawn(name, func(p *Process) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
		})
	}
	spawn("server", func(p *Process) { // never terminates by design
		for {
			p.Receive(requests)
		}
	})
	spawn("client", func(p *Process) {
		requests.Send(1)
		p.Hold(10)
	})
	spawn("stuck", func(p *Process) { p.wait(Step{Await: k.NewFuture()}) })
	k.SpawnAt(1000, "late", func(p *Process) { t.Error("a process first activated after the run was stopped ran") })
	k.RunUntil(500)
	// Two coroutines: server's and stuck's, parked mid-body; client's ended
	// with its body, and late was never activated and has none. A stopped
	// coroutine is gone when Close returns, so the count drops by two at once
	// (goroutines left behind by earlier tests can only lower it further).
	parked := runtime.NumGoroutine()
	events := k.EventCount()
	k.Close()
	k.Close() // idempotent
	if got := runtime.NumGoroutine(); got > parked-2 {
		t.Fatalf("%d goroutines after Close, %d before: want two coroutines gone", got, parked)
	}
	settle(t, base)
	// Deferred calls of the unwound bodies ran, one process at a time (the
	// unsynchronised appends above are the race detector's business), and
	// the process that had finished was not unwound twice.
	if fmt.Sprint(unwound) != "[client server stuck]" {
		t.Errorf("unwound %v, want [client server stuck]", unwound)
	}
	if k.EventCount() != events || k.Now() != 500 {
		t.Errorf("Close moved the kernel: %d events at %d, were %d at 500", k.EventCount(), k.Now(), events)
	}
	if v := recovered(func() { k.Spawn("x", func(*Process) {}) }); v == nil {
		t.Error("Spawn on a closed kernel did not panic")
	}
	if v := recovered(func() { k.Run() }); v == nil {
		t.Error("Run on a closed kernel did not panic")
	}
}

func TestCloseAfterPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	waiting(k, func() { panic("kaput") })
	k.Spawn("server", func(p *Process) { p.Receive(k.NewMailbox("never")) })
	if v := recovered(func() { k.Run() }); v != "kaput" {
		t.Fatalf("Run panicked with %v", v)
	}
	k.Close()
	settle(t, base)
}
