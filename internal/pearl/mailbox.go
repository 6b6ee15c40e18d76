package pearl

// Mailbox is an unbounded FIFO message queue connecting processes, the
// asynchronous message-passing primitive of the Pearl modelling style.
// Messages may be sent from process context or from plain event callbacks;
// receiving requires a process. Delivery order is deterministic: FIFO per
// mailbox.
type Mailbox struct {
	reason  string // block reason of a receiver, built once
	q       fifo[any]
	waiters fifo[*Process]
}

// NewMailbox creates an empty mailbox.
func (k *Kernel) NewMailbox(name string) *Mailbox {
	return &Mailbox{reason: "receive " + name}
}

// Send enqueues msg for delivery at the current virtual time.
func (mb *Mailbox) Send(msg any) {
	mb.deliver(msg)
}

func (mb *Mailbox) deliver(msg any) {
	mb.q.push(msg)
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

// tryReceive dequeues the head message without blocking. It reports false if
// the mailbox is empty. May be called from event callbacks as well as
// processes.
func (mb *Mailbox) tryReceive() (any, bool) {
	if mb.q.len() == 0 {
		return nil, false
	}
	return mb.q.pop(), true
}

// Receive blocks the process until a message is available and dequeues it.
func (p *Process) Receive(mb *Mailbox) any {
	for {
		if msg, ok := mb.tryReceive(); ok {
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
