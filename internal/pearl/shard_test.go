package pearl

import (
	"fmt"
	"testing"
)

// TestRunWindowPhases checks the deferred-phase contract RunWindow adds for
// the parallel engine: within one instant, all normal events run first, then
// Post callbacks, then Settle callbacks — and a normal event scheduled by a
// Post at the same instant preempts the remaining deferred work.
func TestRunWindowPhases(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(5, func() {
		order = append(order, "event")
		k.Settle(func() { order = append(order, "settle") })
		k.Post(func() {
			order = append(order, "post")
			k.At(5, func() { order = append(order, "event2") })
			k.Post(func() { order = append(order, "post2") })
		})
	})
	k.runWindow(100)
	want := "[event post event2 post2 settle]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("phase order = %v, want %v", got, want)
	}
	if k.Now() != 5 {
		t.Fatalf("now = %d after draining, want 5", k.Now())
	}
}

// TestRunWindowStopsAtEnd checks the window boundary: events at end or later
// stay queued.
func TestRunWindowStopsAtEnd(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{1, 9, 10, 11} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.runWindow(10)
	if fmt.Sprint(fired) != "[1 9]" {
		t.Fatalf("window [0,10) fired %v", fired)
	}
	if nt, ok := k.nextTime(); !ok || nt != 10 {
		t.Fatalf("next = %d,%v, want 10,true", nt, ok)
	}
	k.runWindow(100)
	if fmt.Sprint(fired) != "[1 9 10 11]" {
		t.Fatalf("after second window fired %v", fired)
	}
}

// TestShardGroupCrossOrder checks that same-instant cross-shard events are
// injected in (time, key1, key2, source-shard) order regardless of send
// order — the canonical order the sharded network's determinism rests on.
func TestShardGroupCrossOrder(t *testing.T) {
	g := NewShardGroup(2, 10)
	var got []string
	send := func(key1, key2 uint64, tag string) {
		g.Send(0, 1, 50, key1, key2, func() { got = append(got, tag) })
	}
	g.Kernel(0).At(0, func() {
		send(2, 0, "c")
		send(1, 1, "b")
		send(1, 0, "a")
		send(3, 0, "d")
	})
	g.Run()
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("cross events ran as %v, want [a b c d]", got)
	}
	if now := g.Kernel(1).Now(); now != 50 {
		t.Fatalf("receiver clock = %d, want 50", now)
	}
}

// TestShardGroupLookaheadPanic checks that a cross-shard send inside the
// lookahead horizon panics (it would be a causality violation).
func TestShardGroupLookaheadPanic(t *testing.T) {
	g := NewShardGroup(2, 10)
	g.Kernel(0).At(20, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("send at now+5 with lookahead 10 did not panic")
			}
		}()
		g.Send(0, 1, 25, 0, 0, func() {})
	})
	g.Run()
}

// TestShardGroupPingPong bounces an event between two shards and checks
// both clocks advance together through the windows.
func TestShardGroupPingPong(t *testing.T) {
	g := NewShardGroup(2, 4)
	const rounds = 25
	var hops int
	var bounce func(from, to int)
	bounce = func(from, to int) {
		hops++
		if hops >= rounds {
			return
		}
		at := g.Kernel(to).Now() + 4
		g.Send(to, from, at, uint64(hops), 0, func() { bounce(to, from) })
	}
	g.Send(0, 0, 0, 0, 0, func() {
		g.Send(0, 1, 4, 0, 0, func() { bounce(0, 1) })
	})
	end := g.Run()
	if hops != rounds {
		t.Fatalf("hops = %d, want %d", hops, rounds)
	}
	if end != Time(rounds)*4 {
		t.Fatalf("end = %d, want %d", end, rounds*4)
	}
	for i := 0; i < 2; i++ {
		if g.Kernel(i).Now() != end {
			t.Fatalf("kernel %d clock %d, want %d", i, g.Kernel(i).Now(), end)
		}
	}
}

// TestShardGroupDaemonsDoNotKeepAlive checks that daemon events alone (the
// fault replicas' pre-scheduled transitions) do not keep the group running.
func TestShardGroupDaemonsDoNotKeepAlive(t *testing.T) {
	g := NewShardGroup(2, 5)
	fired := 0
	g.Kernel(0).AtDaemon(1000, func() { fired++ })
	g.Kernel(1).At(7, func() {})
	end := g.Run()
	if end != 7 {
		t.Fatalf("end = %d, want 7 (daemons must not extend the run)", end)
	}
	if fired != 0 {
		t.Fatalf("daemon fired %d times after liveness ended", fired)
	}
}

// TestShardGroupPanicPropagates checks a model panic inside a shard worker
// resurfaces on the caller.
func TestShardGroupPanicPropagates(t *testing.T) {
	g := NewShardGroup(2, 5)
	g.Kernel(1).At(3, func() { panic("boom") })
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("worker panic did not propagate")
		}
	}()
	g.Run()
}

// TestFinishAt checks clock alignment at the end of a group run and the
// guard against finishing with live work pending.
func TestFinishAt(t *testing.T) {
	k := NewKernel()
	k.At(3, func() {})
	k.Run()
	k.finishAt(99)
	if k.Now() != 99 {
		t.Fatalf("now = %d after FinishAt(99)", k.Now())
	}
	k.finishAt(50) // never moves backwards
	if k.Now() != 99 {
		t.Fatalf("now = %d after FinishAt(50), want 99", k.Now())
	}
	k2 := NewKernel()
	k2.At(3, func() {})
	defer func() {
		if recover() == nil {
			t.Errorf("FinishAt with pending events did not panic")
		}
	}()
	k2.finishAt(10)
}

// TestFinishAtKeepsQueueExact moves the clock past daemon events still
// queued in the timing wheel — some behind the new time, some within a wheel
// width of it, one beyond — and checks that NextTime still reports the
// earliest one as each is dropped in turn.
func TestFinishAtKeepsQueueExact(t *testing.T) {
	k := NewKernel()
	// Bucket 10 comes before bucket 3 when a search starts at the new
	// time's bucket, 5.
	at := []Time{10, 3, wheelSize - 1, 3 * wheelSize, wheelSize + 10, 2 * wheelSize}
	for _, a := range at {
		k.AtDaemon(a, func() { t.Errorf("daemon event fired") })
	}
	k.At(2, func() {})
	k.Run()
	k.finishAt(wheelSize + 5)
	// Earliest event first, dropped in that order.
	for _, i := range []int{1, 0, 2, 4, 5, 3} {
		if got, ok := k.nextTime(); !ok || got != at[i] {
			t.Fatalf("NextTime = %d, %v; want %d", got, ok, at[i])
		}
		k.drop()
	}
	if got, ok := k.nextTime(); ok {
		t.Fatalf("NextTime = %d on an empty queue", got)
	}
	// Near and far events scheduled after the jump keep (time, seq) order.
	var got []int
	for i, d := range []Time{wheelSize, 0, 1, wheelSize - 1, 1} {
		k.After(d, func() { got = append(got, i) })
	}
	k.Run()
	if want := []int{1, 2, 4, 3, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}
