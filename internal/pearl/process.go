package pearl

import "fmt"

// Process is a simulation process: a coroutine whose execution is
// interleaved with virtual time under strict kernel control. Model code
// inside a process body is written in a blocking style (Hold, Receive,
// Acquire, Await); the kernel guarantees that exactly one process runs at a
// time, so process bodies need no locking.
type Process struct {
	k    *Kernel
	name string
	id   int

	// body runs on worker w, which the process holds from its first
	// activation until body ends; both are nil before and after.
	body func(p *Process)
	w    *worker

	terminated  bool
	runnable    bool // currently running or has a pending activation
	wakePending bool
	wakeTimer   Timer // handle of the pending wake event, for retirement
	blockReason string
	blockedAt   Time // when the current block began (valid while blocked)

	// granted and queuedAt are the process's entry in a Resource's wait
	// queue; it waits for at most one resource at a time.
	granted  bool
	queuedAt Time

	// step is the HoldWhile chain in progress, nil otherwise; acquiring is the
	// contended resource the chain is queued on, if it is.
	step      func() Step
	acquiring *Resource

	// OnPanic, if set, is invoked (in kernel context, on the goroutine that
	// called Run) when the process body panics. The default is to re-panic
	// there with the process name.
	OnPanic func(v any)

	// NameFunc, if set, supplies the process name when somebody asks, in
	// place of the one given to Spawn: for processes spawned by the thousand
	// whose names only a diagnostic ever reads.
	NameFunc func() string

	panicVal any
}

// Spawn creates a process named name running body and schedules its first
// activation at the current virtual time. The body will not run before
// control returns to the kernel loop; until then the process is only this
// record — it takes a worker when it is first activated.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	if k.closed {
		panic("pearl: Spawn on a closed kernel")
	}
	if k.dead > len(k.procs)/2 {
		k.sweep()
	}
	p := &Process{k: k, name: name, id: k.spawned, body: body}
	k.spawned++
	k.procs = append(k.procs, p)
	p.scheduleWake(0)
	return p
}

// sweep drops the terminated processes from k.procs, keeping the order of
// the rest. Spawn calls it when more than half the entries are dead, so the
// cost per spawn is constant and the slice at most twice the live count.
func (k *Kernel) sweep() {
	live := k.procs[:0]
	for _, p := range k.procs {
		if !p.terminated {
			live = append(live, p)
		}
	}
	clear(k.procs[len(live):])
	k.procs, k.dead = live, 0
}

// unwind is what yield panics with to unwind a body parked at Close.
type unwind struct{}

// yield gives the baton up: it switches home, to drive, and returns when
// drive switches back for the process's next activation. When Close stops
// the worker instead, the body is unwound from here.
func (p *Process) yield() {
	if !p.w.yield(struct{}{}) {
		panic(unwind{})
	}
}

// run executes the body to its end, on the worker that calls it.
func (p *Process) run() {
	defer p.exit()
	p.body(p)
}

// exit is the last deferred call of the body. When Close is unwinding the
// body it only ends the unwinding. Otherwise the body has returned or
// panicked with the baton held: the process terminates, and runs the event
// loop a last time before its worker goes idle — unless the body panicked,
// which goes straight home so that the panic is raised there before any
// further event fires.
func (p *Process) exit() {
	k := p.k
	v := recover()
	if k.closed {
		if _, ok := v.(unwind); !ok && v != nil {
			panic(v) // a deferred call of the body panicked: Close raises it
		}
		return
	}
	p.terminated = true
	k.dead++
	p.body, p.w = nil, nil
	k.current = nil
	if v != nil {
		p.panicVal = v
		k.crashed = p
		k.switches++
		return
	}
	k.relay(p)
}

// SpawnAt is Spawn with the first activation delayed until absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, body func(p *Process)) *Process {
	p := k.Spawn(name, body)
	// Spawn scheduled an immediate wake; move it.
	// (The pending wake is always the immediate one here.)
	return p.rescheduleFirst(t)
}

func (p *Process) rescheduleFirst(t Time) *Process {
	// Retire the immediate activation scheduled by Spawn and reschedule at t.
	// Only valid right after Spawn, before the kernel loop runs: the stale
	// event is cancelled (discarded unfired, never counted), not left dead in
	// the queue.
	p.wakeTimer.Cancel()
	p.wakePending = false
	p.runnable = false
	p.scheduleWakeAt(t)
	return p
}

// Name returns the process name.
func (p *Process) Name() string {
	if p.NameFunc != nil {
		return p.NameFunc()
	}
	return p.name
}

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.k.now }

// Terminated reports whether the process body has returned.
func (p *Process) Terminated() bool { return p.terminated }

// BlockReason returns a short description of what the process is currently
// blocked on; empty if running or terminated. For diagnostics.
func (p *Process) BlockReason() string { return p.blockReason }

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("process %q (#%d)", p.Name(), p.id)
}

// activate marks p as the running process and returns it for the event
// loop's caller to become or to leave the baton to; nil when p has
// terminated. Must be called from the kernel loop (event context).
func (k *Kernel) activate(p *Process) *Process {
	if p.terminated {
		return nil
	}
	if k.tracer != nil && p.blockReason != "" && k.now > p.blockedAt {
		k.tracer.ProcessSpan(p, p.blockedAt, k.now, p.blockReason)
	}
	k.current = p
	p.runnable = true
	p.blockReason = ""
	return p
}

// block suspends the process until its next activation. It does not yield
// first: it keeps the baton and runs the event loop itself, on its own stack,
// so callbacks execute here, in kernel context, and if the next activation is
// the process's own it simply returns. Only when another process is
// activated, or the run stops, does it yield the baton home.
func (p *Process) block(reason string) {
	k := p.k
	if k.current != p {
		panic(fmt.Sprintf("pearl: %v blocking while not the running process", p))
	}
	p.runnable = false
	p.blockReason = reason
	p.blockedAt = k.now
	k.current = nil
	if !k.relay(p) {
		p.yield()
	}
}

// scheduleWake schedules an activation of p after delay d, unless an
// activation is already pending (wakes are idempotent).
func (p *Process) scheduleWake(d Time) {
	p.scheduleWakeAt(p.k.now + d)
}

func (p *Process) scheduleWakeAt(t Time) {
	if p.wakePending || p.terminated {
		return
	}
	p.wakePending = true
	p.runnable = true
	// A typed wake event: no closure, no allocation; the kernel clears
	// wakePending and activates p when it fires.
	p.wakeTimer = p.k.schedule(t, evWake, nil, p)
}

// Hold advances the process's virtual time by d cycles, yielding control to
// the kernel meanwhile. Hold(0) yields and resumes at the same time but after
// all events already scheduled at the current instant.
func (p *Process) Hold(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("pearl: %v Hold(%d): negative duration", p, d))
	}
	// A typed hold event: no closure, no allocation.
	p.k.schedule(p.k.now+d, evHold, nil, p)
	p.block("hold")
}

// Step is what a HoldWhile step function asks for next.
type Step struct {
	// Hold lets this many cycles pass before the next step, like
	// Process.Hold. Zero still yields to the events of the current instant.
	Hold Time
	// Acquire, when not nil, takes a unit of the resource before the next
	// step, like Process.Acquire: at once if one is free, else queued behind
	// earlier requesters. Hold is then ignored.
	Acquire *Resource
	// Done ends the chain.
	Done bool
}

// HoldWhile is exactly
//
//	for {
//		switch s := step(); {
//		case s.Done:
//			return
//		case s.Acquire != nil:
//			p.Acquire(s.Acquire)
//		default:
//			p.Hold(s.Hold)
//		}
//	}
//
// except that after the first call step runs in kernel context, on whichever
// stack holds the baton, so a chain of holds and resource waits costs no
// switch however many other processes interleave with it. Each link is one
// typed event — the hold's expiry, or the wake-up a Release schedules for the
// waiter it grants the unit to — that emits the block span a resuming process
// would, does the accounting Acquire would, calls step, and either schedules
// or queues the next link or, on Done, activates the process: the same events
// are scheduled at the same program points as by the loop above, so event
// order, EventCount and everything observable in virtual time are identical.
// step must not block, and must not rely on being called on the process's own
// stack; a panic in it surfaces like a callback's.
func (p *Process) HoldWhile(step func() Step) {
	p.step = step
	if reason := p.advance(); reason != "" {
		p.block(reason)
	}
}

// advance calls p's step function until the chain has to wait — a link is
// scheduled or queued — and returns the block reason of that wait, or ""
// when the chain has ended.
func (p *Process) advance() string {
	for {
		s := p.step()
		switch {
		case s.Done:
			p.step = nil
			return ""
		case s.Acquire == nil:
			if s.Hold < 0 {
				panic(fmt.Sprintf("pearl: %v HoldWhile step asked to hold %d: negative duration", p, s.Hold))
			}
			p.k.schedule(p.k.now+s.Hold, evStep, nil, p)
			return "hold"
		case !s.Acquire.request(p):
			p.acquiring = s.Acquire
			return s.Acquire.reason
		}
	}
}

// resume fires a link of p's chain — its hold has expired, or the resource it
// is queued on has woken it: what activate would do for the resuming process,
// then what the process would do up to its next block.
func (k *Kernel) resume(p *Process) *Process {
	if k.tracer != nil && k.now > p.blockedAt {
		k.tracer.ProcessSpan(p, p.blockedAt, k.now, p.blockReason)
	}
	p.blockedAt = k.now
	if r := p.acquiring; r != nil {
		if !p.granted {
			p.runnable = false // woken, but not by a grant: Acquire parks again
			return nil
		}
		p.acquiring = nil
		r.grant(p)
	}
	if reason := p.advance(); reason != "" {
		p.runnable = false
		p.blockReason = reason
		return nil
	}
	return k.activate(p)
}

// park blocks until some other component calls unpark (via scheduleWake).
// It is the building block of Receive/Acquire/Await.
func (p *Process) park(reason string) { p.block(reason) }

// unpark schedules the process to resume at the current virtual time.
func (p *Process) unpark() { p.scheduleWake(0) }
