package trace

import (
	"testing"

	"mermaid/internal/ops"
)

// Local-operation batching must be allocation-free in steady state: a body
// appends to its thread's one batch buffer, and handing a batch to the
// simulator is a coroutine switch, so emitting and consuming local operations
// costs no garbage once the thread has started. A regression here multiplies
// by every instruction of every detailed simulation, so it is pinned.

// emitter starts a one-thread program whose body emits local operations
// until it is closed.
func emitter(t *testing.T) *Thread {
	pr := &Program{Threads: 1, Body: func(th *Thread) {
		o := ops.NewCompute(1)
		for {
			th.Emit(o)
		}
	}}
	t.Cleanup(pr.Close)
	return pr.Start()[0]
}

func TestAllocFreeEmitNext(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	th := emitter(t)
	cycle := func() {
		for i := 0; i < defaultBatch; i++ {
			if _, err := th.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // the first pull starts the coroutine
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Emit/Next batch cycle allocates %v times per cycle; want 0", got)
	}
}

func TestAllocFreeEmitNextBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	th := emitter(t)
	cycle := func() {
		b, _, err := th.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != defaultBatch {
			t.Fatalf("batch of %d operations, want %d", len(b), defaultBatch)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Emit/NextBatch cycle allocates %v times per cycle; want 0", got)
	}
}

// TestAllocFreeCursorInPlace: a cursor reads operations where the source
// keeps them — a slice source's own slice, a thread's batch buffer — so
// Peek and Advance allocate nothing per operation.
func TestAllocFreeCursorInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	stream := make([]ops.Op, 102*defaultBatch)
	for name, src := range map[string]Source{
		"FromOps": FromOps(stream),
		"Thread":  emitter(t),
	} {
		t.Run(name, func(t *testing.T) {
			cur := NewCursor(src)
			cycle := func() {
				for i := 0; i < defaultBatch; i++ {
					if _, err := cur.Peek(); err != nil {
						t.Fatal(err)
					}
					cur.Advance()
				}
			}
			cycle() // the first pull starts a thread's coroutine
			if got := testing.AllocsPerRun(100, cycle); got != 0 {
				t.Errorf("%d Peek/Advance pairs allocate %v times; want 0", defaultBatch, got)
			}
		})
	}
	// In place: the operation peeked is the slice's own.
	cur := NewCursor(FromOps(stream))
	if o, err := cur.Peek(); err != nil || o != &stream[0] {
		t.Errorf("Peek over FromOps = %p, %v; want the slice's first element %p", o, err, &stream[0])
	}
}
