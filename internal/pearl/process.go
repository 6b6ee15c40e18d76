package pearl

import "fmt"

// Process is a simulation process: a coroutine whose execution is
// interleaved with virtual time under strict kernel control. Model code
// inside a process body is written in a blocking style (Hold, Receive,
// HoldWhile); the kernel guarantees that exactly one process runs at a
// time, so process bodies need no locking.
type Process struct {
	k    *Kernel
	name string
	id   int

	// body runs on worker w, which the process holds from its first
	// activation until body ends; both are nil before and after.
	body func(p *Process)
	w    *worker

	terminated bool
	runnable   bool   // currently running or has a pending activation
	receiving  string // the block reason of a Receive in progress

	// c carries the process's holds, resource waits and awaits, and its
	// HoldWhile chains; its end activates the process.
	c Chain

	// OnPanic, if set, is invoked (in kernel context, on the goroutine that
	// called Run) when the process body panics. The default is to re-panic
	// there with the process name.
	OnPanic func(v any)

	panicVal any
}

// Spawn creates a process named name running body and schedules its first
// activation at the current virtual time. The body will not run before
// control returns to the kernel loop; until then the process is only this
// record — it takes a worker when it is first activated.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt is Spawn with the first activation at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, body func(p *Process)) *Process {
	if k.closed {
		panic("pearl: Spawn on a closed kernel")
	}
	if k.dead > len(k.procs)/2 {
		k.sweep()
	}
	p := &Process{k: k, name: name, id: k.spawned, body: body, runnable: true}
	p.c = Chain{k: k, proc: p}
	k.spawned++
	k.procs = append(k.procs, p)
	k.schedule(t, evChain, nil, &p.c)
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

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.k.now }

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("process %q (#%d)", p.name, p.id)
}

// activate marks p as the running process and returns it for the event
// loop's caller to become or to leave the baton to; nil when p has
// terminated. Must be called from the kernel loop (event context).
func (k *Kernel) activate(p *Process) *Process {
	if p.terminated {
		return nil
	}
	k.current = p
	p.runnable = true
	p.receiving = ""
	return p
}

// block suspends the process until its next activation. It does not yield
// first: it keeps the baton and runs the event loop itself, on its own stack,
// so callbacks execute here, in kernel context, and if the next activation is
// the process's own it simply returns. Only when another process is
// activated, or the run stops, does it yield the baton home.
func (p *Process) block() {
	k := p.k
	if k.current != p {
		panic(fmt.Sprintf("pearl: %v blocking while not the running process", p))
	}
	p.runnable = false
	k.current = nil
	if !k.relay(p) {
		p.yield()
	}
}

// Hold advances the process's virtual time by d cycles, yielding control to
// the kernel meanwhile. Hold(0) yields and resumes at the same time but after
// all events already scheduled at the current instant.
func (p *Process) Hold(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("pearl: %v Hold(%d): negative duration", p, d))
	}
	p.wait(Step{Hold: d})
}

// HoldWhile is exactly
//
//	for {
//		switch s := step(); {
//		case s.Done:
//			return
//		default:
//			p.wait(s) // one hold, one unit of s.Acquire or s.Await
//		}
//	}
//
// except that after the first call step runs in kernel context, as the step
// function of the process's Chain, so a chain of waits costs no switch
// however many other processes interleave with it: each wait is the one event
// that would resume the process, and only the chain's end activates it. The
// same events are scheduled at the same program points as by the loop above,
// so event order, EventCount and everything observable in virtual time are
// identical. step must not block, and must not rely on being called on the
// process's own stack; a panic in it surfaces like a callback's.
func (p *Process) HoldWhile(step func() Step) {
	p.c.step = step
	if p.c.advance() {
		p.block()
		return
	}
	p.c.step = nil
}

// wait blocks the process for one wait of its chain, if s needs one.
func (p *Process) wait(s Step) {
	if p.c.await(s) {
		p.block()
	}
}

// park blocks until some other component calls unpark. It is the building
// block of Receive.
func (p *Process) park(reason string) {
	p.receiving = reason
	p.block()
}

// unpark schedules the process to resume at the current virtual time.
func (p *Process) unpark() { p.c.wake() }
