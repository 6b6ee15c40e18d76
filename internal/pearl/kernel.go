// Package pearl provides the discrete-event simulation kernel that the
// Mermaid architecture models are written in. It is a Go substitute for the
// Pearl object-oriented simulation language used by the original system
// (Muller, "Simulating computer architectures", 1993). Nothing in a model owns
// a stack: every component that waits is the owner of a Chain, a step
// function that returns what it waits for next — a hold, a unit of a
// Resource, a Future — and that the one event ending the wait calls again.
//
// The kernel is strictly deterministic: events at equal virtual times fire in
// schedule order, and at most one component runs at any moment. Given
// identical inputs, a simulation produces identical traces and statistics,
// which the trace-validity guarantees of the environment rely on.
//
// The event queue is allocation-free on the steady state: events live in a
// slab of reusable slots addressed by index. An event is never cancelled:
// once scheduled it fires, or stays queued when the run ends. An event due
// less than wheelSize cycles ahead goes into a timing wheel: one FIFO bucket
// per instant, found through an occupancy bitmap, so scheduling and firing
// it costs O(1) — the bucket of the current instant is where zero-delay
// cascades (grants, completions) land. Only events further ahead take the
// 4-ary heap behind it.
//
// Process is a blocking layer over chains, kept for tests and host-side
// probes that are easier to write as straight-line code: a process owns a
// chain whose step function resumes the process's body, a coroutine
// (iter.Pull), until the body yields the Step it waits for next (see
// process.go). The kernel itself knows only events: the event loop runs on
// the goroutine that called Run, RunUntil or runWindow, and every callback,
// chain step and body panic surfaces there.
package pearl

import (
	"fmt"
	"math/bits"
	"slices"
)

// Time is virtual simulation time, measured in cycles of the simulated
// machine's base clock. It is a signed integer so that durations and
// differences are safe to compute; negative absolute times never occur.
type Time int64

// Forever is a virtual time later than any time a simulation can reach.
const Forever Time = 1<<63 - 1

// eventKind discriminates what firing an event slot does.
type eventKind uint8

const (
	// evFree marks a slot on the free list.
	evFree eventKind = iota
	// evFunc runs a callback closure.
	evFunc
	// evDaemon runs a callback closure like evFunc, but the event never keeps
	// the run alive on its own: Run returns once only daemon events remain.
	evDaemon
	// evChain starts a chain or ends its wait — a hold expiring, a unit
	// granted, a future completed — and calls its step function in kernel
	// context (Kernel.link): no closure needed.
	evChain
	// evRejoin ends the hold of a chain that ran ahead (ahead.go), like
	// evChain; it waits in Kernel.rejoins, not in the wheel or the heap.
	evRejoin
)

// driveMode selects the stop condition of the event loop; the three public
// drivers differ in nothing else.
type driveMode uint8

const (
	// driveRun stops when only daemon events remain.
	driveRun driveMode = iota
	// driveUntil stops before the first event at or after bound.
	driveUntil
	// driveWindow stops before the first event at or after bound, running
	// the deferred Post/Settle phases at the end of every instant.
	driveWindow
)

// eventSlot is one entry of the kernel's event slab, 40 bytes. Slots are
// reused through a free list.
type eventSlot struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among equal times; even, odd for a rejoin
	fn    func() // evFunc and evDaemon only
	chain *Chain // evChain only
	next  int32  // wheel entries: the next slot of the bucket, +1; 0 ends it
	kind  eventKind
}

// Timing-wheel geometry. The width is fixed, and the largest the two-level
// occupancy bitmap covers (64 × 64 buckets): at 32 KB per kernel it holds the
// short delays of detailed mode and also the 256–4,095-cycle delays that are
// a fifth of a large task-level run's events.
const (
	wheelSize  = 4096
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// bucket is one instant of the timing wheel: a FIFO list of slot indices
// threaded through eventSlot.next. Links are index+1, so the zero bucket is
// empty and the zero Kernel usable.
type bucket struct{ head, tail int32 }

// Kernel is a discrete-event simulation engine. Create kernels with
// NewKernel; the zero value is an empty kernel at time zero too.
type Kernel struct {
	now Time
	seq uint64

	slots []eventSlot // slab of event storage, addressed by index
	free  []int32     // released slot indices available for reuse
	heap  []int32     // 4-ary min-heap of slot indices, keyed by (at, seq)

	// wheel holds the events scheduled less than wheelSize cycles ahead, in
	// bucket at&wheelMask. The clock never passes a queued wheel entry, so
	// every one is due in [now, now+wheelSize): a bucket holds a single
	// instant in schedule (seq) order, and the first occupied bucket from
	// now's, cyclically, is the wheel's minimum. Events scheduled further
	// ahead go to the heap. A heap entry due at the same instant as a wheel
	// entry was scheduled earlier (wheelSize or more cycles before that
	// instant, against fewer) and so has the smaller seq: front prefers the
	// heap on a tie. occupied has bit b set while bucket b is non-empty;
	// summary has bit w set while occupied[w] is non-zero.
	wheel    [wheelSize]bucket
	occupied [wheelWords]uint64
	summary  uint64

	live     int    // queued events
	daemonAt []Time // the times of the queued events scheduled with AtDaemon

	// procs is the blocking layer's record (process.go); closed is set by
	// Close.
	procs  processes
	closed bool

	// Deferred same-instant work for the windowed (sharded) executor. Post
	// callbacks run once no ordinary event remains at the current instant;
	// Settle callbacks run after the Posts. Neither queue is ordered by seq —
	// deferred work must be order-insensitive by construction (the sharded
	// network uses Post for arrival draining and Settle for link
	// arbitration, both keyed deterministically). Only runWindow drains
	// these queues; Run and RunUntil predate them and never see any.
	postq      []func()
	postHead   int
	settleq    []func()
	settleHead int

	// reasons names the Reasons made by NewReason and NewReasons, in
	// order; nextReason is the next one to hand out (zero before the first).
	reasons    []reasonRange
	nextReason Reason

	eventCount uint64

	// Running ahead (ahead.go): no line passes horizon, the earlier of the
	// first queued daemon event and bound, the driver's (0 outside one);
	// line is the straight line a chain is running ahead, rejoined the one
	// it has just ended; pend holds the ended lines whose hold is not yet
	// queued, rejoins those queued; spare keeps records for reuse; skipped
	// counts the events counted without a dispatch.
	bound, horizon Time
	firingSeq      uint64 // the sequence number of the chain event being fired
	atRejoin       bool   // a rejoin is being fired
	line           *aheadLine
	rejoined       *aheadLine
	pend           []*aheadLine
	rejoins        []int32 // queued rejoins, in firing order
	rejoining      int     // lines pending or queued
	spare          []*aheadLine
	skipped        uint64
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventCount returns the number of events executed so far; useful as a cheap
// progress and cost metric. A hold that a chain ran ahead of counts as the
// event it replaces (Ahead).
func (k *Kernel) EventCount() uint64 { return k.eventCount }

// schedule allocates a slot for an event at absolute time t and queues it.
// The caller guarantees t >= k.now. Nothing may be scheduled while a chain
// runs ahead: the clock is not the kernel's then.
func (k *Kernel) schedule(t Time, kind eventKind, fn func(), c *Chain) {
	if k.line != nil {
		panic("pearl: event scheduled while a chain runs ahead of the clock")
	}
	k.seq += 2
	idx := k.slot(t, k.seq, kind, fn, c)
	k.live++
	if t-k.now < wheelSize {
		k.wheelPush(idx, t)
	} else {
		k.heapPush(idx)
	}
}

// slot allocates a slot for an event at t with sequence number seq.
func (k *Kernel) slot(t Time, seq uint64, kind eventKind, fn func(), c *Chain) int32 {
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, eventSlot{})
		idx = int32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.at = t
	s.seq = seq
	s.fn = fn
	s.chain = c
	s.kind = kind
	return idx
}

// wheelPush appends slot idx, due at t < now+wheelSize, to its bucket.
func (k *Kernel) wheelPush(idx int32, t Time) {
	b := int(t) & wheelMask
	k.slots[idx].next = 0
	bk := &k.wheel[b]
	if bk.tail == 0 {
		bk.head = idx + 1
		k.occupied[b>>6] |= 1 << (b & 63)
		k.summary |= 1 << (b >> 6)
	} else {
		k.slots[bk.tail-1].next = idx + 1
	}
	bk.tail = idx + 1
}

// wheelFirst returns the first occupied bucket at or after now's, wrapping
// around — the bucket of the wheel's earliest instant — or -1 when the wheel
// is empty.
func (k *Kernel) wheelFirst() int {
	if k.summary == 0 {
		return -1
	}
	b := int(k.now) & wheelMask
	w := b >> 6
	if m := k.occupied[w] & (^uint64(0) << (b & 63)); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	s := k.summary & (^uint64(0) << (w + 1))
	if s == 0 {
		s = k.summary // wrap: earlier buckets hold the later instants
	}
	w = bits.TrailingZeros64(s)
	return w<<6 | bits.TrailingZeros64(k.occupied[w])
}

// wheelPop unlinks the head of bucket b.
func (k *Kernel) wheelPop(b int) {
	bk := &k.wheel[b]
	bk.head = k.slots[bk.head-1].next
	if bk.head != 0 {
		return
	}
	bk.tail = 0
	w := b >> 6
	k.occupied[w] &^= 1 << (b & 63)
	if k.occupied[w] == 0 {
		k.summary &^= 1 << w
	}
}

// release returns a slot to the free list.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.chain = nil
	s.kind = evFree
	k.free = append(k.free, idx)
}

// At schedules fn to run at absolute virtual time t, which must not be in the
// past. On the steady state (slab warm) this performs no heap allocation.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	k.schedule(t, evFunc, fn, nil)
}

// After schedules fn to run d cycles from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("pearl: negative delay %d", d))
	}
	k.schedule(k.now+d, evFunc, fn, nil)
}

// AtDaemon schedules fn at absolute virtual time t like At, except that the
// event never determines when the simulation ends: it fires in strict
// (time, sequence) order while non-daemon work remains, but Run returns —
// leaving it queued, unfired — once only daemon events are left. Background
// chains (fault schedules, periodic samplers) use this so a plan that
// outlives the workload cannot extend the run. RunUntil, whose horizon is
// the caller's and not the schedule's, fires daemon events like any other.
// A daemon bounds the lines run ahead (Chain.Ahead), so it must not be
// queued while a line's levels are pending, which may have passed its
// instant: only build code and firing daemons schedule one.
func (k *Kernel) AtDaemon(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	if len(k.pend) > 0 {
		panic("pearl: daemon event scheduled while a line run ahead is pending: only build code and firing daemons may schedule one")
	}
	k.schedule(t, evDaemon, fn, nil)
	k.daemonAt = append(k.daemonAt, t)
	k.horizon = min(k.horizon, t)
}

// daemonGone forgets a queued daemon event due at t and resets the horizon.
func (k *Kernel) daemonGone(t Time) {
	i := slices.Index(k.daemonAt, t)
	k.daemonAt = slices.Delete(k.daemonAt, i, i+1)
	k.setHorizon()
}

// setHorizon sets the horizon to the earlier of the driver's bound and the
// first queued daemon event.
func (k *Kernel) setHorizon() {
	k.horizon = k.bound
	for _, t := range k.daemonAt {
		k.horizon = min(k.horizon, t)
	}
}

// less orders queued events by (time, sequence).
func (k *Kernel) less(a, b int32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// 4-ary heap: shallower than binary for the same size, so fewer slot-compare
// cache misses per push/pop.
const heapArity = 4

func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	h := k.heap
	i := len(h) - 1
	moving := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !k.less(moving, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moving
}

func (k *Kernel) heapPop() int32 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	moving := h[n]
	k.heap = h[:n]
	if n == 0 {
		return top
	}
	h = k.heap
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], moving) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moving
	return top
}

// queueKind names where a queued event waits.
type queueKind uint8

const (
	inWheel   queueKind = iota
	inHeap              // delays of wheelSize or more
	inRejoins           // rejoins of chains that ran ahead (ahead.go)
)

// front locates the next event in strict (time, seq) order across the wheel,
// the heap and the rejoins. It reports false when no events remain. The
// returned entry is left queued.
func (k *Kernel) front() (idx int32, from queueKind, ok bool) {
	if k.rejoining > 0 {
		if len(k.pend) > 0 {
			k.place()
		}
		return k.frontRejoins()
	}
	return k.frontQueued()
}

// frontQueued is front over the wheel and the heap alone.
func (k *Kernel) frontQueued() (idx int32, from queueKind, ok bool) {
	if b := k.wheelFirst(); b >= 0 {
		idx = k.wheel[b].head - 1
		if len(k.heap) > 0 && k.slots[k.heap[0]].at <= k.slots[idx].at {
			return k.heap[0], inHeap, true
		}
		return idx, inWheel, true
	}
	if len(k.heap) > 0 {
		return k.heap[0], inHeap, true
	}
	return 0, inWheel, false
}

// frontRejoins is front with the pending rejoins left pending: the earlier
// of the wheel's and the heap's next event and the first queued rejoin.
func (k *Kernel) frontRejoins() (idx int32, from queueKind, ok bool) {
	idx, from, ok = k.frontQueued()
	if r := k.rejoins; len(r) > 0 && (!ok || k.less(r[0], idx)) {
		return r[0], inRejoins, true
	}
	return idx, from, ok
}

// remove unlinks idx, the front entry of the indicated queue.
func (k *Kernel) remove(idx int32, from queueKind) {
	if from == inWheel {
		k.wheelPop(int(k.slots[idx].at) & wheelMask)
		return
	}
	if from == inHeap {
		k.heapPop()
		return
	}
	k.rejoins = k.rejoins[:copy(k.rejoins, k.rejoins[1:])]
}

// fire executes the front event, which front has just located.
func (k *Kernel) fire(idx int32, from queueKind) {
	k.remove(idx, from)
	s := &k.slots[idx]
	if s.at < k.now {
		panic("pearl: time went backwards")
	}
	k.now = s.at
	k.eventCount++
	k.live--
	kind, fn, c, seq := s.kind, s.fn, s.chain, s.seq
	if kind == evDaemon {
		k.daemonGone(k.now)
	}
	// Release before firing so the slot is immediately reusable by whatever
	// the event schedules.
	k.release(idx)
	switch kind {
	case evFunc, evDaemon:
		fn()
	case evChain:
		k.firingSeq = seq
		k.link(c)
	case evRejoin:
		k.spare = append(k.spare, c.rejoin)
		c.rejoin = nil
		k.rejoining--
		c.since = k.now // the holds run ahead of have reported their spans
		k.atRejoin = true
		k.link(c)
		k.atRejoin = false
	}
}

// dispatch is the event loop: it fires events in strict (time, seq) order,
// on the calling goroutine, until the stop condition of mode and bound holds.
// An event that panics leaves the kernel as it left it, so the run can be
// resumed. No line runs ahead to bound, the first instant the loop would not
// reach.
func (k *Kernel) dispatch(mode driveMode, bound Time) {
	if k.closed {
		panic("pearl: running a closed kernel")
	}
	k.bound = bound
	k.setHorizon()
	defer func() { k.bound = 0; k.setHorizon() }()
	for {
		idx, from, ok := k.front()
		switch mode {
		case driveRun:
			if k.live <= len(k.daemonAt) {
				return
			}
		case driveUntil:
			if !ok || k.slots[idx].at >= bound {
				return
			}
		case driveWindow:
			if !ok || k.slots[idx].at != k.now {
				// Nothing more at this instant: run its deferred phases. A
				// deferred callback may schedule new current-instant events,
				// which then preempt the remaining deferred work.
				if k.runDeferred() {
					continue
				}
				k.postq, k.postHead = k.postq[:0], 0
				k.settleq, k.settleHead = k.settleq[:0], 0
				if !ok || k.slots[idx].at >= bound {
					return
				}
			}
		}
		k.fire(idx, from)
	}
}

// Run executes events until the schedule is empty (daemon events alone do
// not count — they are left queued, unfired). It returns the final virtual
// time.
func (k *Kernel) Run() Time {
	k.dispatch(driveRun, Forever)
	return k.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns the final virtual time.
func (k *Kernel) RunUntil(t Time) Time {
	k.dispatch(driveUntil, min(t, Forever-1)+1)
	if k.now < t {
		k.now = t
	}
	return k.now
}

// pendingWork reports whether any non-daemon event is queued: the liveness
// condition of Run, exposed so a shard coordinator can decide termination
// across several kernels.
func (k *Kernel) pendingWork() bool { return k.live > len(k.daemonAt) }

// nextTime returns the timestamp of the next event (daemon or not); ok is
// false with nothing queued.
func (k *Kernel) nextTime() (t Time, ok bool) {
	idx, _, ok := k.front()
	if !ok {
		return 0, false
	}
	return k.slots[idx].at, true
}

// Post defers fn to the end of the current instant: it runs once no
// ordinary event remains scheduled for the current time, before time
// advances. Deferred work must be order-insensitive among its peers — the
// kernel fires Posts in submission order, but submission order at one
// instant is not part of the determinism contract the way (time, seq) event
// order is. Only runWindow executes deferred work.
func (k *Kernel) Post(fn func()) { k.postq = append(k.postq, fn) }

// Settle defers fn like Post, but to after every Post of the instant has
// run (and any ordinary same-instant events those created): a second, final
// deferral phase. The sharded network settles link arbitration here so that
// every competing request issued anywhere in the instant is visible before
// a grant is decided.
func (k *Kernel) Settle(fn func()) { k.settleq = append(k.settleq, fn) }

// runDeferred fires one deferred callback if one is eligible, preferring
// Posts over Settles, and reports whether it did.
func (k *Kernel) runDeferred() bool {
	if k.postHead < len(k.postq) {
		fn := k.postq[k.postHead]
		k.postq[k.postHead] = nil
		k.postHead++
		k.eventCount++
		fn()
		return true
	}
	if k.settleHead < len(k.settleq) {
		fn := k.settleq[k.settleHead]
		k.settleq[k.settleHead] = nil
		k.settleHead++
		k.eventCount++
		fn()
		return true
	}
	return false
}

// runWindow executes every event with timestamp strictly before end —
// daemon events included, since the window bound, not liveness, limits the
// horizon — interleaving the deferred Post/Settle phases at each instant.
// The clock is left at the last executed event (it does not advance to end
// on its own), so windows compose: consecutive calls with increasing bounds
// replay exactly the schedule a single unbounded run would.
func (k *Kernel) runWindow(end Time) { k.dispatch(driveWindow, end) }

// finishAt advances an idle (no non-daemon work) kernel's clock to t, so
// end-of-run gauges that read Now() agree across the shards of one
// simulation. Daemon events left queued before t stay queued, unfired —
// exactly like the tail of a fault plan after Run returns.
func (k *Kernel) finishAt(t Time) {
	if k.live > len(k.daemonAt) {
		panic("pearl: FinishAt with non-daemon events pending")
	}
	if t > k.now {
		k.wheelToHeap()
		k.now = t
	}
}

// wheelToHeap moves every wheel entry to the heap. finishAt calls it before
// it moves the clock past queued events, which would break the wheel's
// window [now, now+wheelSize); in the heap they keep their (at, seq) order,
// and ahead of anything scheduled later at the same instant.
func (k *Kernel) wheelToHeap() {
	for k.summary != 0 {
		w := bits.TrailingZeros64(k.summary)
		b := w<<6 | bits.TrailingZeros64(k.occupied[w])
		idx := k.wheel[b].head - 1
		k.wheelPop(b)
		k.heapPush(idx)
	}
}
