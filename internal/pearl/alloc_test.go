package pearl

import "testing"

// The event kernel must not allocate in steady state: once the slot slab and
// the heap array have grown to the working-set size, scheduling and firing
// events reuses slots through the free list, and the timing wheel is part of
// the Kernel itself. These tests pin that property so a regression fails CI
// rather than showing up as GC pressure in long simulations.

// queueDelays are a zero-delay event, near ones (timing wheel) and far ones
// (heap).
var queueDelays = []Time{0, 1, wheelSize - 1, wheelSize, 10 * wheelSize}

func TestAllocFreeScheduleStep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	fn := func() {}
	// Warm the slab: first schedules grow slots/heap once.
	for i := 0; i < 64; i++ {
		for _, d := range queueDelays {
			k.After(d, fn)
			k.step()
		}
	}
	for _, d := range queueDelays {
		if got := testing.AllocsPerRun(200, func() {
			k.After(d, fn)
			k.step()
		}); got != 0 {
			t.Errorf("After(%d)+step allocates %v times per op; want 0", d, got)
		}
	}
}

func TestAllocFreeShardRunDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// With telemetry off, the windowed loop must not touch the host clock or
	// allocate: observation is strictly opt-in.
	g := NewShardGroup(1, 8)
	k := g.Kernel(0)
	fn := func() {}
	for i := 0; i < 8; i++ {
		k.After(1, fn)
		g.Run()
	}
	if got := testing.AllocsPerRun(100, func() {
		k.After(1, fn)
		g.Run()
	}); got != 0 {
		t.Errorf("unobserved single-shard Run allocates %v times per window; want 0", got)
	}
}

func TestAllocFreeHold(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel()
	k.Spawn("holder", func(p *Process) {
		for {
			p.Hold(1)
		}
	})
	k.RunUntil(64) // warm up the slab and the goroutine handoff path
	now := Time(64)
	if got := testing.AllocsPerRun(100, func() {
		now += 8
		k.RunUntil(now)
	}); got != 0 {
		t.Errorf("Hold loop allocates %v times per RunUntil slice; want 0", got)
	}
}
