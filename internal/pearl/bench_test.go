package pearl

import "testing"

// The kernel's primitive costs bound every simulation's speed; these
// benchmarks document them.

func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.After(1, fn)
		}
	}
	k.After(1, fn)
	b.ResetTimer()
	k.Run()
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

func BenchmarkEventHeap(b *testing.B) {
	// Many pending events: heap reordering cost.
	k := NewKernel()
	const pending = 1024
	seed := NewRNG(1)
	for i := 0; i < pending; i++ {
		d := Time(seed.Intn(1000) + 1)
		var fn func()
		fn = func() { k.After(Time(seed.Intn(1000)+1), fn) }
		k.At(d, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.step()
	}
}

func BenchmarkProcessHandoff(b *testing.B) {
	k := NewKernel()
	k.Spawn("holder", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	k.Run()
}

func BenchmarkMailboxPingPong(b *testing.B) {
	k := NewKernel()
	a := k.NewMailbox("a")
	c := k.NewMailbox("b")
	k.Spawn("ping", func(p *Process) {
		for i := 0; i < b.N; i++ {
			c.Send(i)
			p.Receive(a)
		}
	})
	k.Spawn("pong", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Receive(c)
			a.Send(i)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkPingPong prices the hand-off between two processes and nothing
// else: one pre-boxed token bounced through two mailboxes, every Receive a
// park, b.N messages. Beside BenchmarkProcessHandoff (an own hold expiring:
// no switch) it reads as the cost of moving the baton to another process.
func BenchmarkPingPong(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	there, back := k.NewMailbox("there"), k.NewMailbox("back")
	var token any = "token"
	k.Spawn("ping", func(p *Process) {
		for i := 0; i < b.N; i += 2 {
			there.Send(token)
			p.Receive(back)
		}
	})
	k.Spawn("pong", func(p *Process) {
		for {
			back.Send(p.Receive(there))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawnChurn prices a short-lived process from Spawn to the end of
// its body — what the task-level network pays per packet: eight alive at a
// time, each holding once and spawning its successor.
func BenchmarkSpawnChurn(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	spawned := 0
	var body func(p *Process)
	body = func(p *Process) {
		p.Hold(1)
		if spawned < b.N {
			spawned++
			k.Spawn("short", body)
		}
	}
	for ; spawned < 8 && spawned < b.N; spawned++ {
		k.Spawn("short", body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkResourceAcquireRelease(b *testing.B) {
	k := NewKernel()
	r := k.NewResource("r", 1)
	k.Spawn("user", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Acquire(r)
			r.Release()
		}
	})
	b.ResetTimer()
	k.Run()
}

func BenchmarkSynchronousCall(b *testing.B) {
	k := NewKernel()
	mb := k.NewMailbox("srv")
	k.Spawn("server", func(p *Process) {
		for i := 0; i < b.N; i++ {
			c := p.Receive(mb).(*CallMsg)
			c.Reply(c.Req)
		}
	})
	k.Spawn("client", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Call(mb, i)
		}
	})
	b.ResetTimer()
	k.Run()
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	if x == 42 {
		b.Log("unlikely")
	}
}
