package pearl

import "fmt"

// Mailbox is an unbounded FIFO message queue connecting processes, the
// asynchronous message-passing primitive of the Pearl modelling style.
// Messages may be sent from process context or from plain event callbacks;
// receiving requires a process. Delivery order is deterministic: FIFO per
// mailbox, with delayed sends ordered by (arrival time, send order).
type Mailbox struct {
	k       *Kernel
	name    string
	reason  string // block reason of a receiver, built once
	q       fifo[any]
	waiters fifo[*Process]

	// stats
	sent     uint64
	received uint64
	maxDepth int
}

// NewMailbox creates an empty mailbox.
func (k *Kernel) NewMailbox(name string) *Mailbox {
	return &Mailbox{k: k, name: name, reason: "receive " + name}
}

// Name returns the mailbox name.
func (mb *Mailbox) Name() string { return mb.name }

// Len returns the number of queued messages.
func (mb *Mailbox) Len() int { return mb.q.len() }

// Sent and Received return lifetime message counters; MaxDepth the high-water
// queue depth. Useful for model statistics.
func (mb *Mailbox) Sent() uint64     { return mb.sent }
func (mb *Mailbox) Received() uint64 { return mb.received }
func (mb *Mailbox) MaxDepth() int    { return mb.maxDepth }

// Send enqueues msg for delivery at the current virtual time.
func (mb *Mailbox) Send(msg any) {
	mb.deliver(msg)
}

// SendAfter enqueues msg for delivery d cycles from now. The message is not
// visible to receivers before then.
func (mb *Mailbox) SendAfter(d Time, msg any) {
	if d == 0 {
		mb.deliver(msg)
		return
	}
	mb.k.After(d, func() { mb.deliver(msg) })
}

func (mb *Mailbox) deliver(msg any) {
	mb.q.push(msg)
	mb.sent++
	if n := mb.q.len(); n > mb.maxDepth {
		mb.maxDepth = n
	}
	mb.wakeOne()
}

// wakeOne pops one waiter, if any, and schedules it to resume.
func (mb *Mailbox) wakeOne() {
	for mb.waiters.len() > 0 {
		w := mb.waiters.pop()
		if w.terminated {
			continue
		}
		w.unpark()
		return
	}
}

// TryReceive dequeues the head message without blocking. It reports false if
// the mailbox is empty. May be called from event callbacks as well as
// processes.
func (mb *Mailbox) TryReceive() (any, bool) {
	if mb.q.len() == 0 {
		return nil, false
	}
	mb.received++
	return mb.q.pop(), true
}

// Receive blocks the process until a message is available and dequeues it.
func (p *Process) Receive(mb *Mailbox) any {
	for {
		if msg, ok := mb.TryReceive(); ok {
			// Cascade: if more messages and more waiters remain, keep the
			// pipeline moving so no wakeup is lost.
			if mb.q.len() > 0 {
				mb.wakeOne()
			}
			return msg
		}
		mb.waiters.push(p)
		p.park(mb.reason)
	}
}

// ReceiveAny blocks until any of the given mailboxes has a message, then
// dequeues from the first non-empty one (in argument order) and returns its
// index and the message.
func (p *Process) ReceiveAny(mbs ...*Mailbox) (int, any) {
	if len(mbs) == 0 {
		panic("pearl: ReceiveAny with no mailboxes")
	}
	for {
		for i, mb := range mbs {
			if msg, ok := mb.TryReceive(); ok {
				if mb.q.len() > 0 {
					mb.wakeOne()
				}
				return i, msg
			}
		}
		for _, mb := range mbs {
			mb.waiters.push(p)
		}
		p.park(fmt.Sprintf("receive-any (%d mailboxes)", len(mbs)))
		for _, mb := range mbs {
			mb.waiters.remove(p)
		}
	}
}
