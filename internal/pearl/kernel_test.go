package pearl

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(10, func() { got = append(got, 1) })
	k.At(5, func() { got = append(got, 0) })
	k.At(10, func() { got = append(got, 2) }) // same time: schedule order
	k.At(20, func() { got = append(got, 3) })
	end := k.Run()
	if end != 20 {
		t.Fatalf("final time = %d, want 20", end)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEventsAtSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 150 {
		t.Fatalf("fired at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, tt := range []Time{5, 10, 15, 20} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	k.RunUntil(12)
	if k.Now() != 12 {
		t.Fatalf("Now = %d, want 12", k.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	k.Run()
	if len(fired) != 4 || k.Now() != 20 {
		t.Fatalf("after Run: fired = %v, now = %d", fired, k.Now())
	}
}

func TestRunUntilEmptyScheduleAdvancesClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(42)
	if k.Now() != 42 {
		t.Fatalf("Now = %d, want 42", k.Now())
	}
}

func TestEventCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 17; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	if k.EventCount() != 17 {
		t.Fatalf("EventCount = %d, want 17", k.EventCount())
	}
}

// Property: for any set of (time, id) pairs, execution visits them sorted by
// time with ties in insertion order. Delays span the wheel and the heap.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, d
			k.At(Time(d), func() { got = append(got, rec{Time(d), i}) })
		}
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilWithProcesses(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Hold(10)
			ticks++
		}
	})
	k.RunUntil(45)
	if ticks != 4 || k.Now() != 45 {
		t.Fatalf("ticks=%d now=%d, want 4 at 45", ticks, k.Now())
	}
	k.Run()
	if ticks != 10 {
		t.Fatalf("ticks = %d after resume", ticks)
	}
}

func TestTerminatedWaiterSkipped(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("r", 1)
	mb := k.NewMailbox("quit")
	// holder keeps the resource; w1 queues then is unblocked via mailbox and
	// terminates while still queued; w2 queues behind it and must be granted.
	k.Spawn("holder", func(p *Process) {
		p.wait(Step{Acquire: r})
		p.Hold(100)
		r.Release()
	})
	granted := false
	k.Spawn("w2", func(p *Process) {
		p.Hold(2)
		p.wait(Step{Acquire: r})
		granted = true
		r.Release()
	})
	k.Run()
	if !granted {
		t.Fatal("waiter behind queue never granted")
	}
	_ = mb
}

func TestDaemonEventFiresAmongRegularWork(t *testing.T) {
	k := NewKernel()
	var got []Time
	k.AtDaemon(10, func() { got = append(got, k.Now()) })
	k.At(20, func() { got = append(got, k.Now()) })
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("fired at %v, want [10 20]", got)
	}
}

func TestDaemonEventDoesNotExtendRun(t *testing.T) {
	k := NewKernel()
	fired := false
	k.AtDaemon(1000, func() { fired = true })
	k.At(20, func() {})
	if end := k.Run(); end != 20 {
		t.Fatalf("run ended at %d, want 20", end)
	}
	if fired {
		t.Fatal("daemon event beyond the workload fired")
	}
	// The daemon is still queued: new work past its time fires it.
	k.At(2000, func() {})
	if end := k.Run(); end != 2000 {
		t.Fatalf("second run ended at %d, want 2000", end)
	}
	if !fired {
		t.Fatal("daemon event not resumed by later work")
	}
}

func TestDaemonChainReArmsWithoutExtendingRun(t *testing.T) {
	// A self-rescheduling daemon chain — the fault-injector shape — fires for
	// every instant covered by real work and goes quiet with it.
	k := NewKernel()
	var fired []Time
	next := Time(0)
	var arm func()
	arm = func() {
		next += 10
		k.AtDaemon(next, func() { fired = append(fired, k.Now()); arm() })
	}
	arm()
	k.At(35, func() {})
	if end := k.Run(); end != 35 {
		t.Fatalf("run ended at %d, want 35", end)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Fatalf("daemon chain fired at %v, want [10 20 30]", fired)
	}
}

func TestRunUntilFiresDaemonEvents(t *testing.T) {
	// RunUntil's horizon is the caller's, not the schedule's: daemon events
	// inside it fire like any other.
	k := NewKernel()
	fired := false
	k.AtDaemon(10, func() { fired = true })
	if end := k.RunUntil(100); end != 100 {
		t.Fatalf("run ended at %d, want 100", end)
	}
	if !fired {
		t.Fatal("daemon event within the horizon did not fire")
	}
}

func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 40 {
		t.Fatalf("eventSlot is %d bytes, want 40", got)
	}
}
