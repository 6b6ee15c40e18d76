package pearl

import (
	"slices"
	"testing"
)

// FuzzKernelOrder decodes bytes into a schedule — events near, at and far
// past the timing wheel's edge, daemon events, callbacks that schedule
// zero-delay and near cascades, RunUntil cuts, Run, and FinishAt past queued
// daemon events — and replays it on a zero Kernel and on refQueue, a
// reference that keeps every event in one list and fires the minimum by
// (time, schedule order). Firing sequence, clock, NextTime after every cut
// and event count must agree. The daemon events FinishAt leaves behind the
// clock never fire, so after it the program drops each queued event in turn. The seed corpus in
// testdata/fuzz/FuzzKernelOrder holds, among others, the shortest programs
// that tell a heap-first tie-break, the wrap of the bucket search and
// FinishAt's hand-over of the wheel from their broken versions.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		want := replay(&refQueue{}, prog)
		got := replay(&kernelQueue{k: &Kernel{}}, prog)
		if !slices.Equal(got, want) {
			t.Fatalf("kernel observed\n%v\nreference observed\n%v", got, want)
		}
	})
}

// eventQueue is the surface replay drives: the Kernel, or the reference.
type eventQueue interface {
	now() Time
	at(t Time, daemon bool, fn func())
	drop() bool // unlink the next event unfired
	runUntil(t Time)
	run()
	nextTime() (Time, bool)
	pendingWork() bool
	finishAt(t Time)
	events() uint64
}

// fuzzDelays are the delays around the wheel's edges; replay adds byte/16 to
// them, so a byte below 16 picks one exactly.
var fuzzDelays = [16]Time{
	0, 1, 2, 7, 40, wheelSize / 2, wheelSize - 1, wheelSize,
	wheelSize + 1, 2*wheelSize - 1, 2 * wheelSize, 10 * wheelSize, 1 << 40, 0, 1, 3,
}

func fuzzDelay(b byte) Time { return fuzzDelays[b%16] + Time(b/16) }

// replay runs prog on q and returns what it observed, as a flat list.
func replay(q eventQueue, prog []byte) []int64 {
	var obs []int64
	ids := 0
	pos := 0
	next := func() byte {
		if pos == len(prog) {
			return 0
		}
		pos++
		return prog[pos-1]
	}
	observeCut := func() {
		t, ok := q.nextTime()
		obs = append(obs, -1, int64(q.now()), int64(t), b2i(ok))
	}
	// schedule queues the next event id at t; when it fires it logs itself
	// and, while depth lasts, schedules one child per cascade delay.
	var schedule func(t Time, daemon bool, cascade []Time, depth int)
	schedule = func(t Time, daemon bool, cascade []Time, depth int) {
		id := ids
		ids++
		q.at(t, daemon, func() {
			obs = append(obs, int64(id), int64(q.now()))
			if depth > 0 {
				for _, d := range cascade {
					schedule(q.now()+d, false, cascade, depth-1)
				}
			}
		})
	}
	for pos < len(prog) {
		switch op := next(); op % 8 {
		case 0:
			schedule(q.now()+fuzzDelay(next()), false, nil, 0)
		case 1:
			schedule(q.now()+fuzzDelay(next()), true, nil, 0)
		case 2:
			d, c := fuzzDelay(next()), next()
			cascade := make([]Time, c%3)
			for i := range cascade {
				cascade[i] = fuzzDelay(next())
			}
			schedule(q.now()+d, op&8 != 0, cascade, int(c/3%3)+1)
		case 3:
			observeCut()
		case 4:
			q.runUntil(q.now() + fuzzDelay(next()))
			observeCut()
		case 5:
			q.run()
			observeCut()
		case 6:
			// A burst at one instant: FIFO within a bucket, or a heap entry.
			t := q.now() + fuzzDelay(next())
			for n := next()%6 + 1; n > 0; n-- {
				schedule(t, false, nil, 0)
			}
		case 7:
			// FinishAt past queued daemon events (Run leaves nothing else)
			// ends the program: the queue must still report its earliest
			// event while each is dropped in turn.
			q.run()
			q.finishAt(q.now() + fuzzDelay(next()))
			observeCut()
			for q.drop() {
				observeCut()
			}
			return append(obs, int64(q.events()))
		}
	}
	q.run()
	observeCut()
	return append(obs, int64(q.events()))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// kernelQueue adapts the Kernel to eventQueue.
type kernelQueue struct{ k *Kernel }

func (q *kernelQueue) now() Time { return q.k.Now() }
func (q *kernelQueue) at(t Time, daemon bool, fn func()) {
	if daemon {
		q.k.AtDaemon(t, fn)
	} else {
		q.k.At(t, fn)
	}
}
func (q *kernelQueue) drop() bool             { return q.k.drop() }
func (q *kernelQueue) runUntil(t Time)        { q.k.RunUntil(t) }
func (q *kernelQueue) run()                   { q.k.Run() }
func (q *kernelQueue) nextTime() (Time, bool) { return q.k.nextTime() }
func (q *kernelQueue) pendingWork() bool      { return q.k.pendingWork() }
func (q *kernelQueue) finishAt(t Time)        { q.k.finishAt(t) }
func (q *kernelQueue) events() uint64         { return q.k.EventCount() }

// refQueue is the reference model: every event ever scheduled in one list,
// in schedule order, the next to fire found by a linear scan for the
// smallest time.
type refQueue struct {
	t     Time
	evs   []refEvent
	fired uint64
}

type refEvent struct {
	at     Time
	fn     func()
	daemon bool
	done   bool // fired or dropped
}

func (q *refQueue) now() Time { return q.t }
func (q *refQueue) at(t Time, daemon bool, fn func()) {
	q.evs = append(q.evs, refEvent{at: t, fn: fn, daemon: daemon})
}

func (q *refQueue) drop() bool {
	i := q.first()
	if i >= 0 {
		q.evs[i].done = true
	}
	return i >= 0
}

// first returns the index of the next event to fire, or -1.
func (q *refQueue) first() int {
	best := -1
	for i := range q.evs {
		if !q.evs[i].done && (best < 0 || q.evs[i].at < q.evs[best].at) {
			best = i
		}
	}
	return best
}

func (q *refQueue) fire(i int) {
	q.evs[i].done = true
	q.t = q.evs[i].at
	q.fired++
	q.evs[i].fn()
}

func (q *refQueue) runUntil(t Time) {
	for i := q.first(); i >= 0 && q.evs[i].at <= t; i = q.first() {
		q.fire(i)
	}
	if q.t < t {
		q.t = t
	}
}

func (q *refQueue) run() {
	for q.pendingWork() {
		q.fire(q.first())
	}
}

func (q *refQueue) nextTime() (Time, bool) {
	if i := q.first(); i >= 0 {
		return q.evs[i].at, true
	}
	return 0, false
}

func (q *refQueue) pendingWork() bool {
	for _, e := range q.evs {
		if !e.done && !e.daemon {
			return true
		}
	}
	return false
}

func (q *refQueue) finishAt(t Time) {
	if t > q.t {
		q.t = t
	}
}

func (q *refQueue) events() uint64 { return q.fired }
