package trace

import (
	"fmt"
	"io"
	"sync"

	"mermaid/internal/ops"
)

// Program is a multi-threaded trace-generating application: Body runs once
// per simulated node, each invocation in its own goroutine, exactly like the
// threaded instrumented programs of §3.1. The threads produce operation
// streams that the architecture simulator consumes; the per-thread handshake
// at global events implements physical-time interleaving.
// A program's goroutines live until their bodies return. If a simulation
// aborts early (trace error, deadlock), call Close to unblock and reap the
// threads still parked on emission or feedback; machines and programs are
// single-use, so treat an aborted run's program as consumed.
type Program struct {
	// Threads is the number of application threads (= simulated nodes).
	Threads int
	// Body is the per-thread program. It may run ahead of the simulator on
	// local operations but is suspended at every global event.
	Body func(t *Thread)
	// Buffer is the per-thread local-operation buffer depth (how far a
	// thread may run ahead); 0 selects a default.
	Buffer int

	threads []*Thread
}

// DefaultBuffer is the run-ahead window for local operations.
const DefaultBuffer = 4096

// defaultBatch is the local-operation batch size: how many local operations
// accumulate thread-side before one channel operation hands them to the
// simulator. Global events always flush, so the batch factor only amortises
// traffic that needs no synchronisation.
const defaultBatch = 64

// Start launches the program's threads and returns one Source per thread for
// the simulator to consume. Each thread's stream ends (io.EOF) when its body
// returns.
func (pr *Program) Start() []*Thread {
	if pr.Threads <= 0 {
		panic("trace: program with no threads")
	}
	buf := pr.Buffer
	if buf <= 0 {
		buf = DefaultBuffer
	}
	threads := make([]*Thread, pr.Threads)
	for i := range threads {
		threads[i] = newThread(i, pr.Threads, buf)
	}
	pr.threads = threads
	for _, t := range threads {
		t := t
		go func() {
			defer close(t.ch)
			defer func() {
				v := recover()
				if v == nil {
					// Body returned: hand over any batched tail.
					t.tryFlush()
					return
				}
				if _, stopped := v.(threadStopped); stopped {
					// Close unwound the thread; nothing to report.
					return
				}
				// Deliver the panic to the consumer side instead of killing
				// the host process — unless the consumer is gone already.
				// Locals emitted before the panic are flushed first so the
				// consumer sees everything that actually executed.
				t.tryFlush()
				select {
				case t.ch <- []Event{{Op: ops.Op{}, Payload: threadPanic{v}}}:
				case <-t.done:
				}
			}()
			pr.Body(t)
		}()
	}
	return threads
}

// Close cancels the program's generator threads: every thread parked on
// emission or awaiting simulator feedback unwinds (running its deferred
// calls) and its goroutine exits, instead of staying parked for the process
// lifetime. Call it when a simulation aborts early; after a completed run it
// is a harmless no-op. Close is idempotent. It must not be called while a
// simulator is still actively driving the threads, and the consumer side
// must not rely on Next after Close (the streams end).
func (pr *Program) Close() {
	for _, t := range pr.threads {
		t.Close()
	}
}

type threadPanic struct{ v any }

// threadStopped is the sentinel panic that unwinds a generator goroutine
// when its thread is closed.
type threadStopped struct{}

// Thread is the generator side of one application thread plus the consumer
// side used by the simulator (Next/NextBatch). Producer methods (Emit, Send,
// Recv, …) must only be called from the thread's body; Next/NextBatch only
// from the simulator.
//
// Local operations are batched: Emit appends to a thread-side slice that is
// handed to the simulator in a single channel operation when it reaches the
// batch size — or immediately, together with the pending locals, when a
// global event forces synchronisation. Exhausted batch buffers are recycled
// back to the producer, so steady-state emission does not allocate.
type Thread struct {
	id     int
	n      int
	ch     chan []Event
	resume chan Feedback
	done   chan struct{}
	once   sync.Once

	emitted    uint64
	nextHandle uint64

	// Producer side: the batch under construction and the recycling channel
	// feeding empty buffers back from the consumer.
	batch    []Event
	batchCap int
	freeCh   chan []Event

	// Consumer side: the batch currently being drained (Next) or on loan to
	// the caller (NextBatch).
	cur    []Event
	curPos int
	lent   []Event
}

// newThread builds one thread with its batching geometry derived from the
// run-ahead buffer depth: batches never exceed the buffer, and the channel
// holds enough batches to keep the same run-ahead window.
func newThread(id, n, buffer int) *Thread {
	batch := defaultBatch
	if batch > buffer {
		batch = buffer
	}
	depth := buffer / batch
	if depth < 1 {
		depth = 1
	}
	return &Thread{
		id:       id,
		n:        n,
		ch:       make(chan []Event, depth),
		resume:   make(chan Feedback),
		done:     make(chan struct{}),
		batchCap: batch,
		freeCh:   make(chan []Event, depth+2),
	}
}

// Close cancels this thread's generator goroutine (see Program.Close). It is
// idempotent and safe to call from any goroutine.
func (t *Thread) Close() {
	t.once.Do(func() { close(t.done) })
}

// deliverBatch hands a batch to the consumer, unwinding the generator if the
// thread was closed while parked (buffer full, consumer gone).
func (t *Thread) deliverBatch(b []Event) {
	select {
	case <-t.done:
		panic(threadStopped{})
	default:
	}
	select {
	case t.ch <- b:
	case <-t.done:
		panic(threadStopped{})
	}
}

// flush hands the pending batch to the consumer and starts a fresh one,
// reusing a recycled buffer when available.
func (t *Thread) flush() {
	if len(t.batch) == 0 {
		return
	}
	b := t.batch
	select {
	case nb := <-t.freeCh:
		t.batch = nb
	default:
		t.batch = make([]Event, 0, t.batchCap+1)
	}
	t.deliverBatch(b)
}

// tryFlush is flush for unwinding contexts: a close racing the final flush
// must not escape as a panic.
func (t *Thread) tryFlush() {
	defer func() {
		if v := recover(); v != nil {
			if _, stopped := v.(threadStopped); !stopped {
				panic(v)
			}
		}
	}()
	t.flush()
}

// recycle clears an exhausted batch and returns it to the producer.
func (t *Thread) recycle(b []Event) {
	clear(b)
	select {
	case t.freeCh <- b[:0]:
	default:
	}
}

// ID returns the thread's node rank.
func (t *Thread) ID() int { return t.id }

// Threads returns the total number of threads in the program.
func (t *Thread) Threads() int { return t.n }

// Emitted returns the number of operations emitted so far.
func (t *Thread) Emitted() uint64 { return t.emitted }

// Next implements Source for the simulator. It blocks (on the host) until
// the generator thread has produced the next operation — the execution-
// driven coupling of trace generation and simulation. Operations arrive a
// batch at a time under the hood; Next serves them from the current batch
// without further synchronisation.
func (t *Thread) Next() (Event, error) {
	for t.curPos >= len(t.cur) {
		if t.cur != nil {
			t.recycle(t.cur)
			t.cur, t.curPos = nil, 0
		}
		b, open := <-t.ch
		if !open {
			return Event{}, io.EOF
		}
		t.cur, t.curPos = b, 0
	}
	ev := t.cur[t.curPos]
	t.curPos++
	if tp, isPanic := ev.Payload.(threadPanic); isPanic {
		return Event{}, fmt.Errorf("trace: thread %d panicked: %v", t.id, tp.v)
	}
	return ev, nil
}

// NextBatch implements BatchSource: it returns the thread's next batch of
// operations in one synchronisation. The returned slice is only valid until
// the next NextBatch call (the buffer is recycled to the producer then).
func (t *Thread) NextBatch() ([]Event, error) {
	if t.curPos < len(t.cur) {
		// Leftover from single-event consumption; hand over the remainder.
		b := t.cur[t.curPos:]
		t.lent = t.cur
		t.cur, t.curPos = nil, 0
		return b, nil
	}
	if t.cur != nil {
		t.lent = t.cur
		t.cur, t.curPos = nil, 0
	}
	if t.lent != nil {
		t.recycle(t.lent)
		t.lent = nil
	}
	b, open := <-t.ch
	if !open {
		return nil, io.EOF
	}
	if len(b) > 0 {
		if tp, isPanic := b[0].Payload.(threadPanic); isPanic {
			return nil, fmt.Errorf("trace: thread %d panicked: %v", t.id, tp.v)
		}
	}
	t.lent = b
	return b, nil
}

// Emit produces a local (non-global) operation. The thread runs ahead
// freely: local operations cannot be influenced by other processors, so no
// synchronisation with the simulator is needed (§2); batching amortises even
// the channel handoff across defaultBatch operations.
func (t *Thread) Emit(o ops.Op) {
	if o.Kind.IsGlobalEvent() {
		panic(fmt.Sprintf("trace: Emit of global event %s; use Send/Recv", o.Kind))
	}
	t.emitted++
	if t.batch == nil {
		t.batch = make([]Event, 0, t.batchCap+1)
	}
	t.batch = append(t.batch, Event{Op: o})
	if len(t.batch) >= t.batchCap {
		t.flush()
	}
}

// emitGlobal produces a global event and suspends until the simulator
// resumes the thread. The pending local batch travels in the same channel
// operation, ahead of the global event, preserving per-thread order; the
// per-operation handshake of physical-time interleaving is untouched.
func (t *Thread) emitGlobal(o ops.Op, payload any) Feedback {
	t.emitted++
	if t.batch == nil {
		t.batch = make([]Event, 0, t.batchCap+1)
	}
	t.batch = append(t.batch, Event{Op: o, Payload: payload, Resume: t.resume})
	t.flush()
	select {
	case fb := <-t.resume:
		return fb
	case <-t.done:
		panic(threadStopped{})
	}
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

// ARecv posts an asynchronous receive and returns immediately with a handle;
// the thread continues generating trace while the message is in flight.
// Consume the data with Wait, which emits the WaitRecv completion
// pseudo-operation.
func (t *Thread) ARecv(src int, tag uint32) *RecvHandle {
	h := t.nextHandle
	t.nextHandle++
	o := ops.NewARecv(int32(src), tag)
	o.Addr = h
	t.emitGlobal(o, nil)
	return &RecvHandle{t: t, id: h}
}

// RecvHandle is an outstanding asynchronous receive.
type RecvHandle struct {
	t    *Thread
	id   uint64
	done bool
	fb   Feedback
}

// Wait suspends the application thread until the receive has completed in
// simulated time, returning the source and payload. The suspension is
// visible to the simulator as a WaitRecv pseudo-operation. Wait is
// idempotent: further calls return the same result without re-suspending.
func (h *RecvHandle) Wait() (int, any) {
	if !h.done {
		h.fb = h.t.emitGlobal(ops.NewWaitRecv(h.id), nil)
		h.done = true
	}
	return int(h.fb.Peer), h.fb.Payload
}
