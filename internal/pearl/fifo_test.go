package pearl

import "testing"

// Blocking on a mailbox or a resource is the hot path of every model that
// communicates; once the queues have grown to their working depth it must
// cost no allocation, and a queue must not keep what it has handed out.

func TestAllocFreeBlocking(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	defer k.Close()
	a, b := k.NewMailbox("a"), k.NewMailbox("b")
	bus := k.NewResource("bus", 1)
	var msg any = "token" // boxed once: what is left is the kernel's own cost
	k.Spawn("ping", func(p *Process) {
		for {
			b.Send(msg)
			p.Receive(a) // parks: pong has not answered yet
			p.Use(bus, 2)
		}
	})
	k.Spawn("pong", func(p *Process) {
		for {
			p.Receive(b)
			a.Send(msg)
			p.Use(bus, 3) // the two queue for the bus in turn
		}
	})
	k.RunUntil(1000)
	if bus.WaitCycles() == 0 || a.Received() == 0 {
		t.Fatal("nobody waited for the bus or for a message: the test does not block")
	}
	now := k.Now()
	if got := testing.AllocsPerRun(100, func() {
		now += 100
		k.RunUntil(now)
	}); got != 0 {
		t.Errorf("receive/acquire traffic allocates %v objects per 100 cycles; want 0", got)
	}
}

func TestFifoKeepsNothingItPopped(t *testing.T) {
	var f fifo[*int]
	for i := 0; i < 5; i++ {
		f.push(new(int))
	}
	for f.len() > 0 {
		f.pop()
	}
	for i, p := range f.q[:cap(f.q)] {
		if p != nil {
			t.Errorf("slot %d of a drained queue still holds a popped element", i)
		}
	}
}

func TestFifoBoundedWhenNeverDrained(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	for i := 0; i < 3; i++ { // a standing depth of three
		f.push(next)
		next++
	}
	for i := 0; i < 100_000; i++ {
		f.push(next)
		next++
		if got := f.pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
		want++
	}
	if f.len() != 3 || cap(f.q) > 16 {
		t.Errorf("depth %d on a backing array of %d after 100000 messages; want 3 on a handful", f.len(), cap(f.q))
	}
}
