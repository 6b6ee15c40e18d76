package pearl

// Future is a one-shot completion cell, the reply half of a synchronous
// request: a caller embeds a Future in its request message, sends the
// request through a mailbox, and awaits the future; the server completes it
// when the reply is ready (the network interface's synchronous send awaits
// its acknowledgement this way).
type Future struct {
	done    bool
	val     any
	waiters []*Process
}

// NewFuture creates an incomplete future.
func (k *Kernel) NewFuture() *Future { return &Future{} }

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Value returns the completion value; valid only once Done.
func (f *Future) Value() any { return f.val }

// Complete resolves the future with v and wakes all awaiting processes.
// Completing a future twice panics: replies are one-shot.
func (f *Future) Complete(v any) {
	if f.done {
		panic("pearl: future completed twice")
	}
	f.done = true
	f.val = v
	for _, w := range f.waiters {
		if !w.terminated {
			w.unpark()
		}
	}
	f.waiters = nil
}

// Await blocks the process until the future is complete, returning its value.
func (p *Process) Await(f *Future) any {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.park("await")
	}
	return f.val
}
