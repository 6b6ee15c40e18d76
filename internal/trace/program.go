package trace

import (
	"fmt"
	"io"
	"iter"

	"mermaid/internal/ops"
)

// Program is a multi-threaded trace-generating application: Body runs once
// per simulated node, exactly like the threaded instrumented programs of
// §3.1. Each thread is a coroutine (iter.Pull) that the simulator resumes
// when it pulls the thread's next operations: the body runs until it has a
// batch of local operations or has reached a global event, then suspends
// until the next pull. So bodies run on the simulator's goroutine, one at a
// time, and a Body must not block on host synchronisation (channels, locks)
// shared with other threads — no other thread can run while it waits.
// Threads exchange data through Send/Recv and friends, in simulated time.
//
// A thread that is never pulled never runs its body. If a simulation aborts
// early (trace error, deadlock), call Close to unwind the threads still
// suspended; programs are single-use, so treat an aborted run's program as
// consumed.
type Program struct {
	// Threads is the number of application threads (= simulated nodes).
	Threads int
	// Body is the per-thread program. It runs at most one batch of local
	// operations ahead of the simulator and is suspended at every global
	// event.
	Body func(t *Thread)

	threads []*Thread
}

// defaultBatch is the local-operation batch size: how many local operations
// a thread generates before it hands them to the simulator in one coroutine
// switch. A global event always ends a batch.
const defaultBatch = 64

// Start creates the program's threads and returns one Source per thread for
// the simulator to consume. A thread's body starts at its first pull; its
// stream ends (io.EOF) when the body returns.
func (pr *Program) Start() []*Thread {
	if pr.Threads <= 0 {
		panic("trace: program with no threads")
	}
	pr.threads = make([]*Thread, pr.Threads)
	for i := range pr.threads {
		t := &Thread{id: i, n: pr.Threads, body: pr.Body}
		t.resume = t.feed
		pr.threads[i] = t
	}
	return pr.threads
}

// Close unwinds the program's threads: a started body still suspended — on a
// batch or awaiting feedback — runs its deferred calls and ends, and a thread
// never pulled stays unrun. Call it when a simulation aborts early; after a
// completed run it is a no-op. Close is idempotent. Call it from the
// goroutine that drives the threads, not from inside a body; Next after Close
// returns io.EOF.
func (pr *Program) Close() {
	for _, t := range pr.threads {
		t.close()
	}
}

// stopped is the sentinel panic that unwinds a suspended body when its
// thread is closed.
type stopped struct{}

// Thread is the generator side of one application thread plus the consumer
// side used by the simulator (Next/NextBatch). Producer methods (Emit, Send,
// Recv, …) must only be called from the thread's body; Next/NextBatch only
// from the simulator.
//
// The body appends operations to one batch buffer, reused for the thread's
// whole life: the simulator reads the yielded batch in place, and the body
// refills it when the next pull resumes it. A batch ends at a global event,
// whose payload and resume wait beside the buffer, not in it, so the buffer
// holds no pointers. Steady-state emission therefore allocates nothing and
// no thread holds more than one batch.
type Thread struct {
	id   int
	n    int
	body func(*Thread)

	emitted uint64

	// The coroutine: next resumes the body until it yields a batch, stop
	// unwinds it, yield is the body's way back. next is nil until the first
	// pull.
	next  func() ([]ops.Op, bool)
	stop  func()
	yield func([]ops.Op) bool

	batch []ops.Op // the body's buffer
	g     Global   // the plumbing of the batch's closing global event
	cur   []ops.Op // the batch being consumed, cur[pos:]
	pos   int

	// resume is feed, bound once: the Resume of every global event. awaiting
	// runs from the yield of a global event to the feed that answers it.
	resume   func(Feedback)
	fb       Feedback
	awaiting bool

	err error // how the stream ended (io.EOF or the body's panic); nil while open
}

// ID returns the thread's node rank.
func (t *Thread) ID() int { return t.id }

// Threads returns the total number of threads in the program.
func (t *Thread) Threads() int { return t.n }

// Next returns the thread's next event, one at a time. When the current
// batch is used up it resumes the body for the next one — the
// execution-driven coupling of trace generation and simulation; otherwise it
// is a slice index.
func (t *Thread) Next() (Event, error) {
	if t.pos == len(t.cur) {
		if err := t.pull(); err != nil {
			return Event{}, err
		}
	}
	ev := Event{Op: t.cur[t.pos]}
	if t.pos++; t.pos == len(t.cur) {
		ev.Global = t.g
	}
	return ev, nil
}

// NextBatch implements Source: it returns the rest of the current batch,
// or resumes the body for the next one. The slice is only valid until the
// next NextBatch call, which hands the buffer back to the body.
func (t *Thread) NextBatch() ([]ops.Op, Global, error) {
	if t.pos == len(t.cur) {
		if err := t.pull(); err != nil {
			return nil, Global{}, err
		}
	}
	b := t.cur[t.pos:]
	t.pos = len(t.cur)
	return b, t.g, nil
}

// pull resumes the body for its next batch. Pulling past a global event the
// simulator has not answered is a simulator bug, and a panic: the body would
// read feedback that never came.
func (t *Thread) pull() error {
	if t.err != nil {
		return t.err
	}
	if t.awaiting {
		panic(fmt.Sprintf("trace: thread %d pulled past a global event without feedback", t.id))
	}
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.run)
	}
	b, ok := t.next()
	if !ok {
		return t.err
	}
	t.cur, t.pos = b, 0
	return nil
}

// feed records the simulator's answer to the global event the body is
// suspended at; the body reads it when the next pull resumes it.
func (t *Thread) feed(fb Feedback) {
	if !t.awaiting {
		panic(fmt.Sprintf("trace: thread %d given feedback twice for one global event", t.id))
	}
	t.fb, t.awaiting = fb, false
}

// close ends the stream, unwinding a suspended body.
func (t *Thread) close() {
	if t.stop != nil {
		t.stop()
	}
	if t.err == nil {
		t.err = io.EOF
	}
}

// run is the thread's coroutine: the body, then the locals it left batched.
// A panic other than the stop sentinel ends the stream with an error, after
// those locals.
func (t *Thread) run(yield func([]ops.Op) bool) {
	t.yield = yield
	t.batch = make([]ops.Op, 0, defaultBatch)
	err := t.call()
	if err == nil || (len(t.batch) > 0 && !yield(t.batch)) {
		return // closed
	}
	t.err = err
}

// call runs the body: io.EOF when it returns, the error its panic turns into,
// or nil when Close unwound it.
func (t *Thread) call() (err error) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case stopped:
			err = nil
		default:
			err = fmt.Errorf("trace: thread %d panicked: %v", t.id, v)
		}
	}()
	t.body(t)
	return io.EOF
}

// flush yields the batch to the simulator and, once the next pull resumes
// the body, empties it for reuse.
func (t *Thread) flush() {
	if !t.yield(t.batch) {
		panic(stopped{})
	}
	t.batch = t.batch[:0]
}

// Emit produces a local (non-global) operation. Local operations cannot be
// influenced by other processors, so they need no synchronisation with the
// simulator (§2): the body only suspends once a batch is full.
func (t *Thread) Emit(o ops.Op) {
	if o.Kind.IsGlobalEvent() {
		panic(fmt.Sprintf("trace: Emit of global event %s; use Send/Recv", o.Kind))
	}
	t.emitted++
	t.batch = append(t.batch, o)
	if len(t.batch) == defaultBatch {
		t.flush()
	}
}

// emitGlobal produces a global event and suspends until the simulator has
// answered it and pulls again. The pending locals travel in the same batch,
// ahead of the global event, preserving per-thread order; the per-operation
// handshake of physical-time interleaving is untouched. The payload and
// resume travel beside the batch and are dropped when the body resumes, so
// the thread keeps no payload reachable.
func (t *Thread) emitGlobal(o ops.Op, payload any) Feedback {
	t.emitted++
	t.batch = append(t.batch, o)
	t.g = Global{Payload: payload, Resume: t.resume}
	t.awaiting = true
	t.flush()
	t.g = Global{}
	fb := t.fb
	t.fb = Feedback{}
	return fb
}

// Send performs a synchronous (blocking) send: the thread suspends until the
// message has been delivered to — and accepted by — the destination on the
// simulated machine.
func (t *Thread) Send(dst int, size uint32, tag uint32, payload any) {
	t.emitGlobal(ops.NewSend(size, int32(dst), tag), payload)
}

// ASend performs an asynchronous send: the thread suspends only until the
// simulator has accepted the message for injection.
func (t *Thread) ASend(dst int, size uint32, tag uint32, payload any) {
	t.emitGlobal(ops.NewASend(size, int32(dst), tag), payload)
}

// Recv performs a synchronous receive from the given source, returning the
// message payload once it has arrived in simulated time.
func (t *Thread) Recv(src int, tag uint32) any {
	fb := t.emitGlobal(ops.NewRecv(int32(src), tag), nil)
	return fb.Payload
}

// RecvAny receives from any source. Which message matches is decided by the
// architecture simulator — the feedback loop that makes the trace the one
// the target machine would produce. It returns the actual source and the
// payload.
func (t *Thread) RecvAny(tag uint32) (int, any) {
	fb := t.emitGlobal(ops.NewRecv(ops.AnyPeer, tag), nil)
	return int(fb.Peer), fb.Payload
}
