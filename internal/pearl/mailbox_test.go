package pearl

import (
	"testing"
)

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("fifo")
	var got []int
	k.Spawn("producer", func(p *Process) {
		for i := 0; i < 5; i++ {
			mb.Send(i)
			p.Hold(1)
		}
	})
	k.Spawn("consumer", func(p *Process) {
		for i := 0; i < 5; i++ {
			got = append(got, p.Receive(mb).(int))
		}
	})
	k.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestMailboxSendAfter(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("delayed")
	var when Time
	k.Spawn("consumer", func(p *Process) {
		p.Receive(mb)
		when = k.Now()
	})
	k.After(42, func() { mb.Send("late") })
	k.Run()
	if when != 42 {
		t.Fatalf("received at %d, want 42", when)
	}
}

func TestMailboxBlocksUntilMessage(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("block")
	var when Time = -1
	k.Spawn("consumer", func(p *Process) {
		p.Receive(mb)
		when = k.Now()
	})
	k.Spawn("producer", func(p *Process) {
		p.Hold(100)
		mb.Send("go")
	})
	k.Run()
	if when != 100 {
		t.Fatalf("consumer resumed at %d, want 100", when)
	}
}

func TestMailboxMultipleWaitersNoLostWakeup(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("m")
	served := 0
	for i := 0; i < 4; i++ {
		k.Spawn("consumer", func(p *Process) {
			p.Receive(mb)
			served++
		})
	}
	k.Spawn("producer", func(p *Process) {
		p.Hold(1)
		// Burst: all four messages at the same instant.
		for i := 0; i < 4; i++ {
			mb.Send(i)
		}
	})
	k.Run()
	if served != 4 {
		t.Fatalf("served = %d, want 4 (lost wakeup)", served)
	}
	if len(k.blocked()) != 0 {
		t.Fatalf("blocked processes remain: %v", k.blocked())
	}
}

func TestTryReceive(t *testing.T) {
	k := NewKernel()
	mb := k.NewMailbox("try")
	if _, ok := mb.tryReceive(); ok {
		t.Fatal("tryReceive on empty mailbox succeeded")
	}
	mb.Send(7)
	v, ok := mb.tryReceive()
	if !ok || v.(int) != 7 {
		t.Fatalf("tryReceive = %v, %v", v, ok)
	}
}
