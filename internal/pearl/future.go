package pearl

// Future is a one-shot completion cell, the reply half of a synchronous
// request: a caller embeds a Future in its request message, sends the
// request, and awaits the future with Step{Await}; the server completes it
// when the reply is ready (the network interface's synchronous send awaits
// its acknowledgement this way). The zero Future is incomplete.
type Future struct {
	done    bool
	val     any
	waiting *Chain // chains awaiting completion, in arrival order
}

// NewFuture creates an incomplete future.
func (k *Kernel) NewFuture() *Future { return &Future{} }

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Value returns the completion value; valid only once Done.
func (f *Future) Value() any { return f.val }

// Complete resolves the future with v and schedules, for every chain
// awaiting it, the zero-delay event that resumes it. Completing a future
// twice panics: replies are one-shot.
func (f *Future) Complete(v any) {
	if f.done {
		panic("pearl: future completed twice")
	}
	f.done = true
	f.val = v
	for c := f.waiting; c != nil; {
		next := c.next
		c.next = nil
		c.wake()
		c = next
	}
	f.waiting = nil
}
