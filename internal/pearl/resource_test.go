package pearl

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus", 1)
	var order []string
	worker := func(name string, start Time) {
		k.Spawn(name, func(p *Process) {
			p.Hold(start)
			p.wait(Step{Acquire: r})
			order = append(order, fmt.Sprintf("%s+%d", name, k.Now()))
			p.Hold(10)
			order = append(order, fmt.Sprintf("%s-%d", name, k.Now()))
			r.Release()
		})
	}
	worker("a", 0)
	worker("b", 1)
	worker("c", 2)
	k.Run()
	want := "a+0 a-10 b+10 b-20 c+20 c-30"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("link", 1)
	var grants []int
	k.Spawn("holder", func(p *Process) {
		p.wait(Step{Acquire: r})
		p.Hold(100)
		r.Release()
	})
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
			p.Hold(Time(10 + i)) // arrival order 0,1,2,3,4
			p.wait(Step{Acquire: r})
			grants = append(grants, i)
			p.Hold(1)
			r.Release()
		})
	}
	k.Run()
	for i, g := range grants {
		if g != i {
			t.Fatalf("grants = %v, want FIFO order", grants)
		}
	}
}

// TryAcquire succeeds exactly when Acquire would not block, with the same
// bookkeeping.
func TestTryAcquire(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("port", 2)
	if !r.TryAcquire() || !r.TryAcquire() {
		t.Fatal("TryAcquire refused a free unit")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire took a third unit of two")
	}
	var granted Time
	k.Spawn("waiter", func(p *Process) {
		p.wait(Step{Acquire: r})
		granted = k.Now()
	})
	k.After(5, func() {
		if r.queueLen() != 1 {
			t.Errorf("%d queued, want the waiter", r.queueLen())
		}
		r.Release() // goes to the waiter, at 5
		r.Release()
		k.After(0, func() {
			// One unit is free again, and nobody is queued any more.
			if !r.TryAcquire() {
				t.Error("TryAcquire refused the unit the second Release freed")
			}
		})
	})
	k.Run()
	if granted != 5 || r.inUse != 2 || r.Acquires() != 4 || r.WaitCycles() != 5 {
		t.Errorf("waiter granted at %d, %d in use, %d acquisitions, %d wait cycles; want 5, 2, 4, 5",
			granted, r.inUse, r.Acquires(), r.WaitCycles())
	}
}

func TestResourceCapacity(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("ports", 2)
	var concurrent, maxConcurrent int
	for i := 0; i < 6; i++ {
		k.Spawn("w", func(p *Process) {
			p.wait(Step{Acquire: r})
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Hold(10)
			concurrent--
			r.Release()
		})
	}
	k.Run()
	if maxConcurrent != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConcurrent)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %d, want 30 (3 batches of 10)", k.Now())
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus", 1)
	k.Spawn("w", func(p *Process) {
		p.Hold(50)
		p.wait(Step{Acquire: r})
		p.Hold(50)
		r.Release() // busy half the time
	})
	k.Run()
	if u := r.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestResourceAvgWait(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus", 1)
	k.Spawn("first", func(p *Process) {
		p.wait(Step{Acquire: r})
		p.Hold(10)
		r.Release()
	})
	k.Spawn("second", func(p *Process) {
		p.wait(Step{Acquire: r})
		p.Hold(10)
		r.Release()
	}) // waits 10
	k.Run()
	// Two acquires, total wait 10 -> mean 5.
	if w := r.AvgWait(); math.Abs(w-5) > 1e-9 {
		t.Fatalf("avg wait = %v, want 5", w)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

// Property: with capacity c and n unit-time users, makespan is ceil(n/c) and
// the resource never exceeds capacity.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%20) + 1
		c := int(c8%4) + 1
		k := NewKernel()
		r := k.NewResource("r", c)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *Process) {
				p.wait(Step{Acquire: r})
				if r.inUse > c {
					t.Fatal("capacity exceeded")
				}
				p.Hold(1)
				r.Release()
			})
		}
		end := k.Run()
		want := Time((n + c - 1) / c)
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFutureAwait(t *testing.T) {
	k := NewKernel()
	f := k.NewFuture()
	var got any
	var when Time
	k.Spawn("waiter", func(p *Process) {
		p.wait(Step{Await: f})
		got = f.Value()
		when = k.Now()
	})
	k.Spawn("completer", func(p *Process) {
		p.Hold(33)
		f.Complete("done")
	})
	k.Run()
	if got != "done" || when != 33 {
		t.Fatalf("Await = %v at %d", got, when)
	}
}

func TestFutureAwaitAlreadyDone(t *testing.T) {
	k := NewKernel()
	f := k.NewFuture()
	f.Complete(1)
	var got any
	k.Spawn("waiter", func(p *Process) {
		p.wait(Step{Await: f})
		got = f.Value()
	})
	k.Run()
	if got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := NewKernel()
	f := k.NewFuture()
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Complete(2)
}

// TestSynchronousCall: a synchronous request is a mailbox message carrying
// a Future for the reply, the idiom the network interface's synchronous send
// uses for its acknowledgement.
func TestSynchronousCall(t *testing.T) {
	type request struct {
		n     int
		reply *Future
	}
	k := NewKernel()
	mb := k.NewMailbox("server")
	k.Spawn("server", func(p *Process) {
		for i := 0; i < 2; i++ {
			req := p.Receive(mb).(request)
			k.After(10, func() { req.reply.Complete(req.n * req.n) })
		}
	})
	var results []int
	var times []Time
	k.Spawn("client", func(p *Process) {
		for _, n := range []int{3, 4} {
			req := request{n: n, reply: k.NewFuture()}
			mb.Send(req)
			p.wait(Step{Await: req.reply})
			results = append(results, req.reply.Value().(int))
			times = append(times, k.Now())
		}
	})
	k.Run()
	if len(results) != 2 || results[0] != 9 || results[1] != 16 {
		t.Fatalf("results = %v", results)
	}
	if times[0] != 10 || times[1] != 20 {
		t.Fatalf("times = %v, want [10 20]", times)
	}
}
