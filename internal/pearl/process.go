package pearl

import (
	"fmt"
	"iter"
)

// Process is a simulation process: a body written in a blocking style (Hold,
// Receive, HoldWhile) whose execution is interleaved with virtual time under
// strict kernel control. It is a library over Chain: the process owns a
// chain whose step function resumes the body — a coroutine made at the
// process's first activation — until the body yields the Step it waits for
// next, which the chain then waits for like any other. Bodies and events run
// one at a time, so bodies need no locking.
type Process struct {
	k    *Kernel
	name string
	id   int

	// body runs on the coroutine next resumes and stop unwinds, made at the
	// first activation; yield is the coroutine's side of the switch. All
	// three are nil before the first activation and after the body's end.
	body  func(p *Process)
	next  func() (Step, bool)
	stop  func()
	yield func(Step) bool

	running    bool        // the body is executing: only then may it block
	terminated bool        // the body has ended
	while      func() Step // the step of a HoldWhile in progress, after its first call
	receiving  string      // the block reason of a Receive in progress
	mail       Future      // what a Receive parks on, reset at every park

	c Chain

	// OnPanic, if set, is invoked (in kernel context, on the goroutine that
	// called Run) when the process body panics. The default is to re-panic
	// there with the process name.
	OnPanic func(v any)

	panicVal any
}

// processes is a kernel's record of its processes: those that have not
// terminated, in spawn order, and up to as many again that have — add sweeps
// those out once they are the majority, so that a run's short-lived processes
// do not stay reachable until the kernel dies. spawned numbers them, resumed
// counts body resumptions (Kernel.Switches).
type processes struct {
	list    []*Process
	dead    int
	spawned int
	resumed uint64
}

// add records p, first sweeping out the terminated processes if they are
// the majority, so the cost per spawn is constant and the list at most twice
// the live count.
func (ps *processes) add(p *Process) {
	if ps.dead > len(ps.list)/2 {
		live := ps.list[:0]
		for _, q := range ps.list {
			if !q.terminated {
				live = append(live, q)
			}
		}
		clear(ps.list[len(live):])
		ps.list, ps.dead = live, 0
	}
	ps.spawned++
	ps.list = append(ps.list, p)
}

// Spawn creates a process named name running body and schedules its first
// activation at the current virtual time. The body will not run before
// control returns to the kernel loop; until then the process is only this
// record — its coroutine is made when it is first activated.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt is Spawn with the first activation at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, body func(p *Process)) *Process {
	if k.closed {
		panic("pearl: Spawn on a closed kernel")
	}
	p := &Process{k: k, name: name, id: k.procs.spawned, body: body}
	p.c.Init(k, p.step)
	k.procs.add(p)
	k.schedule(t, evChain, nil, &p.c)
	return p
}

// Switches returns how many times a process body has been resumed so far —
// at its first activation and at the end of each of its waits — exact and
// seed-determined like EventCount. Chains cost none: a run that spawns no
// process reads 0.
func (k *Kernel) Switches() uint64 { return k.procs.resumed }

// Close ends the kernel's life: it unwinds the body of every process that
// has started and not ended, so that no coroutine outlives the run. A body
// is unwound from where it is parked by a panic that run recovers: its
// deferred calls run, one process at a time, and nothing else is touched, so
// clocks and counters read as the run left them. Close is idempotent; it
// must be called from the goroutine driving the kernel, between runs, and a
// closed kernel can be neither run nor spawned on.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs.list {
		if p.stop != nil {
			p.stop()
		}
	}
}

// step is the step function of the process's chain. It calls the step of a
// HoldWhile in progress until that ends, then resumes the body until the
// body yields its next wait. A body that has ended ends the chain; if it
// panicked, the panic is raised here, before any further event fires, or
// handed to OnPanic.
func (p *Process) step() Step {
	if p.while != nil {
		if s := p.while(); !s.Done {
			return s
		}
		p.while = nil
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	p.k.procs.resumed++
	p.running = true
	s, ok := p.next()
	p.running = false
	if ok {
		return s
	}
	p.terminated = true
	p.k.procs.dead++
	p.body, p.next, p.stop, p.yield = nil, nil, nil, nil
	if v := p.panicVal; v != nil {
		if p.OnPanic == nil {
			panic(fmt.Sprintf("pearl: %v panicked: %v", p, v))
		}
		p.OnPanic(v)
	}
	return Step{Done: true}
}

// unwind is what wait panics with to unwind a body parked at Close.
type unwind struct{}

// run is the body's coroutine. It keeps a body's panic for step to raise,
// and ends the unwinding Close starts — letting through any other panic of a
// deferred call, for Close to raise.
func (p *Process) run(yield func(Step) bool) {
	p.yield = yield
	defer func() {
		v := recover()
		if _, ok := v.(unwind); ok || v == nil {
			return
		}
		if p.k.closed {
			panic(v)
		}
		p.panicVal = v
	}()
	p.body(p)
}

// wait blocks the body for the wait s asks for, if it needs one: it hands s
// to the chain and returns when the chain resumes the body. Only the running
// body may block — from anywhere else, yield would switch out of a coroutine
// the caller is not on.
func (p *Process) wait(s Step) {
	if !p.running {
		panic(fmt.Sprintf("pearl: %v blocking while not the running process", p))
	}
	if !p.yield(s) {
		panic(unwind{})
	}
}

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("process %q (#%d)", p.name, p.id)
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
// except that after the first call step runs in kernel context, called by
// the process's chain, so a chain of waits resumes the body once, at its
// end, however many waits it takes. The same events are scheduled at the
// same program points as by the loop above, so event order, EventCount and
// everything observable in virtual time are identical. step must not block;
// a panic in it surfaces like a callback's.
func (p *Process) HoldWhile(step func() Step) {
	if s := step(); !s.Done {
		p.while = step
		p.wait(s)
	}
}

// park blocks until some other component calls unpark: an await of the
// process's own future. It is the building block of Receive.
func (p *Process) park(reason string) {
	p.mail.done = false
	p.receiving = reason
	p.wait(Step{Await: &p.mail})
	p.receiving = ""
}

// unpark schedules the process to resume at the current virtual time.
func (p *Process) unpark() { p.mail.Complete(nil) }
