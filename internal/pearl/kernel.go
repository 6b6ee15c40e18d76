// Package pearl provides the discrete-event simulation kernel that the
// Mermaid architecture models are written in. It is a Go substitute for the
// Pearl object-oriented simulation language used by the original system
// (Muller, "Simulating computer architectures", 1993): simulation models are
// expressed as communicating processes that exchange messages in virtual
// time, with both synchronous (call/reply) and asynchronous message passing.
//
// The kernel is strictly deterministic: events at equal virtual times fire in
// schedule order, and at most one process runs at any moment. Given
// identical inputs, a simulation produces identical traces and statistics,
// which the trace-validity guarantees of the environment rely on.
//
// The event queue is allocation-free on the steady state: events live in a
// slab of reusable slots addressed by index, ordered by a hand-specialized
// 4-ary heap, with generation-counted Timer handles for cancellation (lazy
// invalidation — a cancelled event stays queued and is discarded unfired when
// it surfaces). Events scheduled for the current instant bypass the heap
// through a FIFO run queue, so zero-delay cascades (mailbox handoffs, bus
// grants) cost no heap reordering at all.
//
// There is no kernel goroutine and no scheduler in the loop. Process bodies
// run on pooled coroutines (iter.Pull workers, see worker) that the goroutine
// calling Run switches into and that switch back to it: a direct transfer of
// control, never a wake-up through the Go scheduler. The event loop runs on
// whichever stack holds the baton: the caller's, or that of a process that
// has just blocked and fires events itself until the next process activation
// (see dispatch and Process.block). A process whose own hold expires next
// resumes without any switch.
package pearl

import (
	"fmt"
	"iter"
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
	// evCancelled marks a queued slot whose timer was cancelled; it is
	// released unfired when it reaches the front (lazy invalidation).
	evCancelled
	// evFunc runs a callback closure.
	evFunc
	// evHold resumes a process parked in Hold — no closure needed.
	evHold
	// evWake is an idempotent process activation (park/unpark) — no closure
	// needed.
	evWake
	// evDaemon runs a callback closure like evFunc, but the event never keeps
	// the run alive on its own: Run returns once only daemon events remain.
	evDaemon
	// evStep is the expiry of a hold link of a HoldWhile chain: the process's
	// step function runs in kernel context and either extends the chain or
	// ends it, which activates the process — no closure needed. (The link of
	// a contended acquisition is the evWake of the grant.)
	evStep
)

// driveMode selects the stop condition of the event loop; the three public
// drivers differ in nothing else.
type driveMode uint8

const (
	// driveRun stops when only daemon events remain, or on Stop.
	driveRun driveMode = iota
	// driveUntil stops before the first event later than bound, or on Stop.
	driveUntil
	// driveWindow stops before the first event at or after bound, running
	// the deferred Post/Settle phases at the end of every instant.
	driveWindow
)

// eventSlot is one entry of the kernel's event slab. Slots are reused through
// a free list; gen increments on every release so stale Timer handles can
// never cancel a recycled slot.
type eventSlot struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal times
	fn   func() // evFunc only
	proc *Process
	gen  uint32
	kind eventKind
}

// Timer is a generation-counted handle to a scheduled event. The zero Timer
// is valid and never pending. Timers are plain values: scheduling does not
// allocate.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel invalidates the event. The entry stays queued and is discarded,
// unfired and uncounted, when it surfaces (lazy invalidation — no heap
// removal). Cancelling an already-fired or already-cancelled timer is a
// no-op. It reports whether the event was still pending.
func (t Timer) Cancel() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	if s.gen != t.gen || s.kind < evFunc {
		return false
	}
	if s.kind == evDaemon {
		t.k.daemons--
	}
	s.kind = evCancelled
	s.fn = nil
	s.proc = nil
	t.k.live--
	return true
}

// Pending reports whether the timer's event has not yet fired or been
// cancelled.
func (t Timer) Pending() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	return s.gen == t.gen && s.kind >= evFunc
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// create kernels with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	slots []eventSlot // slab of event storage, addressed by index
	free  []int32     // released slot indices available for reuse
	heap  []int32     // 4-ary min-heap of slot indices, keyed by (at, seq)

	// runq is the same-timestamp FIFO run queue: events scheduled for the
	// current instant. Because virtual time is monotonic and seq strictly
	// increases, the queue is ordered by (at, seq) by construction, so the
	// front is its minimum and zero-delay cascades bypass heap push/pop.
	runq     []int32
	runqHead int

	live    int // queued events that are not cancelled
	daemons int // live events scheduled with AtDaemon

	// procs holds the processes that have not terminated, in spawn order,
	// and up to as many again that have: Spawn sweeps those out once they are
	// the majority, so a run's short-lived processes — a network packet each
	// — do not stay reachable until the kernel dies. spawned numbers them.
	procs   []*Process
	dead    int
	spawned int

	// Deferred same-instant work for the windowed (sharded) executor. Post
	// callbacks run once no ordinary event remains at the current instant;
	// Settle callbacks run after the Posts. Neither queue is ordered by seq —
	// deferred work must be order-insensitive by construction (the sharded
	// network uses Post for arrival draining and Settle for link
	// arbitration, both keyed deterministically). Only RunWindow drains
	// these queues; Run and RunUntil predate them and never see any.
	postq      []func()
	postHead   int
	settleq    []func()
	settleHead int

	// current is the process whose body is running, or nil while the event
	// loop (an event callback, a HoldWhile step) is: kernel context.
	current *Process

	// The baton: exactly one stack runs kernel or model code at a time. mode
	// and bound are the stop condition of the drive in progress, read by
	// whichever stack runs the loop. A worker that gives the baton up yields
	// home, to drive on the goroutine that called Run/RunUntil/RunWindow,
	// leaving in pending the process its loop activated — nil at a stop
	// condition, or with a panic to raise there: crashed is the process whose
	// body panicked, fault the value a callback panicked with while a worker
	// ran the loop. switches counts baton transfers.
	mode     driveMode
	bound    Time
	pending  *Process
	crashed  *Process
	fault    any
	switches uint64

	// idle holds the workers whose last body has ended, for the next first
	// activation to reuse; closed is set by Close.
	idle   []*worker
	closed bool

	eventCount  uint64
	daemonFired uint64 // daemon events actually executed
	stopped     bool

	// tracer, when non-nil, observes process scheduling for the
	// instrumentation layer. The hook sits on the process activation path,
	// not the event loop, so pure-event workloads pay nothing.
	tracer Tracer
}

// Tracer observes process scheduling. ProcessSpan is called when a process
// resumes after blocking: [from, to] is the blocked interval and reason the
// process's block reason ("hold", "receive x", "acquire y"). Implementations
// must not re-enter the kernel.
type Tracer interface {
	ProcessSpan(p *Process, from, to Time, reason string)
}

// SetTracer attaches (or, with nil, detaches) a scheduling tracer.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Tracers fans one process-span feed out to several consumers (e.g. the
// timeline recorder and the bottleneck collector observing the same run). It
// implements Tracer itself; attach with SetTracer.
type Tracers []Tracer

// ProcessSpan implements Tracer by forwarding to every member in order.
func (ts Tracers) ProcessSpan(p *Process, from, to Time, reason string) {
	for _, t := range ts {
		t.ProcessSpan(p, from, to, reason)
	}
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventCount returns the number of events executed so far; useful as a cheap
// progress and cost metric. Cancelled events are never executed or counted.
func (k *Kernel) EventCount() uint64 { return k.eventCount }

// Switches returns the number of hand-offs performed so far: every transfer
// of the baton from the running stack to another (caller to process, process
// back to the caller, and process to process, which is relayed through the
// caller and counts once). Like EventCount it is exact and seed-determined; a
// process resuming from its own hold, a HoldWhile step and every callback
// cost none.
func (k *Kernel) Switches() uint64 { return k.switches }

// schedule allocates a slot for an event at absolute time t and queues it.
// The caller guarantees t >= k.now.
func (k *Kernel) schedule(t Time, kind eventKind, fn func(), proc *Process) Timer {
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
	s.seq = k.seq
	s.fn = fn
	s.proc = proc
	s.kind = kind
	k.seq++
	k.live++
	if t == k.now {
		k.runq = append(k.runq, idx)
	} else {
		k.heapPush(idx)
	}
	return Timer{k: k, idx: idx, gen: s.gen}
}

// release returns a slot to the free list, bumping its generation so stale
// Timer handles become inert.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.proc = nil
	s.kind = evFree
	s.gen++
	k.free = append(k.free, idx)
}

// At schedules fn to run at absolute virtual time t, which must not be in the
// past. It returns a cancellable Timer. On the steady state (slab warm) this
// performs no heap allocation.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	return k.schedule(t, evFunc, fn, nil)
}

// After schedules fn to run d cycles from now. Negative d panics.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("pearl: negative delay %d", d))
	}
	return k.schedule(k.now+d, evFunc, fn, nil)
}

// AtDaemon schedules fn at absolute virtual time t like At, except that the
// event never determines when the simulation ends: it fires in strict
// (time, sequence) order while non-daemon work remains, but Run returns —
// leaving it queued, unfired — once only daemon events are left. Background
// chains (fault schedules, periodic samplers) use this so a plan that
// outlives the workload cannot extend the run. RunUntil, whose horizon is
// the caller's and not the schedule's, fires daemon events like any other.
func (k *Kernel) AtDaemon(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("pearl: scheduling event at %d, before current time %d", t, k.now))
	}
	k.daemons++
	return k.schedule(t, evDaemon, fn, nil)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

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

// front locates the next event in strict (time, seq) order across the heap
// and the run queue, releasing cancelled entries along the way. It reports
// false when no live events remain. The returned entry is left queued.
func (k *Kernel) front() (idx int32, fromRunq, ok bool) {
	for {
		hasR := k.runqHead < len(k.runq)
		hasH := len(k.heap) > 0
		switch {
		case hasR && hasH:
			if r := k.runq[k.runqHead]; k.less(r, k.heap[0]) {
				idx, fromRunq = r, true
			} else {
				idx, fromRunq = k.heap[0], false
			}
		case hasR:
			idx, fromRunq = k.runq[k.runqHead], true
		case hasH:
			idx, fromRunq = k.heap[0], false
		default:
			return 0, false, false
		}
		if k.slots[idx].kind != evCancelled {
			return idx, fromRunq, true
		}
		k.remove(fromRunq)
		k.release(idx)
	}
}

// remove discards the front entry of the indicated queue.
func (k *Kernel) remove(fromRunq bool) {
	if fromRunq {
		k.runqHead++
		if k.runqHead == len(k.runq) {
			k.runq = k.runq[:0]
			k.runqHead = 0
		}
		return
	}
	k.heapPop()
}

// fire executes the front event, which front has just located. It returns
// the process the event activated — already marked running; the caller
// becomes it or passes it the baton — or nil for every other event.
func (k *Kernel) fire(idx int32, fromRunq bool) *Process {
	k.remove(fromRunq)
	s := &k.slots[idx]
	if s.at < k.now {
		panic("pearl: time went backwards")
	}
	k.now = s.at
	k.eventCount++
	k.live--
	kind, fn, proc := s.kind, s.fn, s.proc
	if kind == evDaemon {
		k.daemons--
		k.daemonFired++
	}
	// Release before firing so the slot is immediately reusable by whatever
	// the event schedules.
	k.release(idx)
	switch kind {
	case evFunc, evDaemon:
		fn()
	case evHold:
		return k.activate(proc)
	case evWake:
		proc.wakePending = false
		if proc.acquiring != nil {
			return k.resume(proc)
		}
		return k.activate(proc)
	case evStep:
		return k.resume(proc)
	}
	return nil
}

// dispatch runs the event loop on the calling stack, which must hold the
// baton with no process running. It fires events in strict (time, seq) order
// until one activates a process, which it returns, or until the stop
// condition of the drive in progress holds, when it returns nil.
func (k *Kernel) dispatch() *Process {
	for {
		idx, fromRunq, ok := k.front()
		switch k.mode {
		case driveRun:
			if k.stopped || k.live <= k.daemons {
				return nil
			}
		case driveUntil:
			if k.stopped || !ok || k.slots[idx].at > k.bound {
				return nil
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
				if !ok || k.slots[idx].at >= k.bound {
					return nil
				}
			}
		}
		if p := k.fire(idx, fromRunq); p != nil {
			return p
		}
	}
}

// worker is a coroutine that runs process bodies, one after another: a
// process gets one at its first activation and returns it to Kernel.idle when
// its body ends, so short-lived processes run on a stack that has already
// grown. drive switches into a worker with next; the worker switches back
// with yield. Both are direct switches between two goroutines that never pass
// through the scheduler's run queues (iter.Pull).
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// worker returns an idle worker, or a new one. Either runs the body of the
// process that has just been activated (k.current) when next switches to it.
func (k *Kernel) worker() *worker {
	if n := len(k.idle); n > 0 {
		w := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		return w
	}
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			k.current.run()
			if k.closed {
				return
			}
			k.idle = append(k.idle, w)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// drive is the caller's side of a run: it dispatches on the calling
// goroutine and, whenever an event activates a process, switches to that
// process's worker and waits for the baton to come home. It comes home in
// one of three ways: with another process pending, which drive switches to in
// turn; with none, when a worker running the loop has met the stop condition
// — dispatch confirms it here and drive returns; or with a panic, which is
// raised (or given to OnPanic) here, on the goroutine that called Run.
func (k *Kernel) drive(mode driveMode, bound Time) {
	if k.closed {
		panic("pearl: running a closed kernel")
	}
	k.mode, k.bound = mode, bound
	for {
		p := k.dispatch()
		if p == nil {
			return
		}
		k.switches++
		for p != nil {
			if p.w == nil {
				p.w = k.worker()
			}
			p.w.next()
			if v := k.fault; v != nil {
				k.fault = nil
				panic(v)
			}
			if c := k.crashed; c != nil {
				k.crashed = nil
				if c.OnPanic == nil {
					panic(fmt.Sprintf("pearl: %v panicked: %v", c, c.panicVal))
				}
				c.OnPanic(c.panicVal)
			}
			p, k.pending = k.pending, nil
		}
	}
}

// relay is the process side: self's worker holds the baton and has just
// stopped running its body (blocked or terminated), so it runs the event
// loop itself until the baton moves. It reports true when the next
// activation is self's own — no switch at all; otherwise it has left the
// activated process, or nil, in pending for drive, and the caller must yield.
func (k *Kernel) relay(self *Process) bool {
	next := k.dispatchRecover()
	if next == self {
		return true
	}
	k.switches++
	k.pending = next
	return false
}

// dispatchRecover is dispatch for a worker: a panic in kernel context (a
// callback, a HoldWhile step) must surface on the goroutine that called Run
// and must not unwind the body that happens to be underneath, so it is parked
// in fault and the baton sent home as if the run had stopped. The process
// stays blocked and intact.
func (k *Kernel) dispatchRecover() (p *Process) {
	defer func() {
		if v := recover(); v != nil {
			k.fault = v
			p = nil
		}
	}()
	return k.dispatch()
}

// Run executes events until the schedule is empty (daemon events alone do
// not count — they are left queued, unfired) or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	k.drive(driveRun, 0)
	return k.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t if
// the simulation got that far. Like Run, a call to Stop ends execution after
// the current event with the clock left where it stopped — a stopped run
// never silently advances time. It returns the final virtual time.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopped = false
	k.drive(driveUntil, t)
	if !k.stopped && k.now < t {
		k.now = t
	}
	return k.now
}

// Close ends the kernel's life: it unwinds the body of every process that
// has started and not terminated — servers that loop forever, processes a
// deadlocked or aborted run left blocked — and ends every worker, so that
// neither they nor the model they reference outlive the run. Each body is
// unwound from where it is parked by a panic that Process.exit recovers (a
// goroutine exit would not stop at the coroutine: it propagates to whoever
// resumed it, here Close's caller): its deferred calls run, one process at a
// time, and nothing else of kernel or model state is touched, so clocks,
// counters, Blocked and BlockReason still read as the run left them. A
// process never activated has no worker and runs nothing. A kernel that has
// run processes holds its idle workers until it is closed. Close is
// idempotent. It must be called from the goroutine driving the kernel,
// between runs; a closed kernel can be neither run nor spawned on.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		if !p.terminated && p.w != nil {
			p.w.stop()
		}
	}
	for _, w := range k.idle {
		w.stop()
	}
	k.idle = nil
}

// Blocked returns the processes that are alive but have no pending event to
// resume them: with an idle kernel these are deadlocked (or waiting on
// external input). Intended for diagnostics at end of simulation.
func (k *Kernel) Blocked() []*Process {
	var out []*Process
	for _, p := range k.procs {
		if !p.terminated && !p.runnable {
			out = append(out, p)
		}
	}
	return out
}

// DaemonEvents returns how many daemon events have been executed. The
// sharded runner uses it to normalise event counts: background chains
// replicated into every shard (the fault plan) are counted once.
func (k *Kernel) DaemonEvents() uint64 { return k.daemonFired }

// PendingWork reports whether any non-daemon event is queued: the liveness
// condition of Run, exposed so a shard coordinator can decide termination
// across several kernels.
func (k *Kernel) PendingWork() bool { return k.live > k.daemons }

// NextTime returns the timestamp of the next live event (daemon or not),
// discarding cancelled entries on the way; ok is false with nothing queued.
func (k *Kernel) NextTime() (t Time, ok bool) {
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
// order is. Only RunWindow executes deferred work.
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

// RunWindow executes every event with timestamp strictly before end —
// daemon events included, since the window bound, not liveness, limits the
// horizon — interleaving the deferred Post/Settle phases at each instant.
// The clock is left at the last executed event (it does not advance to end
// on its own), so windows compose: consecutive calls with increasing bounds
// replay exactly the schedule a single unbounded run would.
func (k *Kernel) RunWindow(end Time) { k.drive(driveWindow, end) }

// FinishAt advances an idle (no non-daemon work) kernel's clock to t, so
// end-of-run gauges that read Now() agree across the shards of one
// simulation. Daemon events left queued before t stay queued, unfired —
// exactly like the tail of a fault plan after Run returns.
func (k *Kernel) FinishAt(t Time) {
	if k.live > k.daemons {
		panic("pearl: FinishAt with non-daemon events pending")
	}
	if t > k.now {
		k.now = t
	}
}
