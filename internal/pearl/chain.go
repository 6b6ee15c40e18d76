package pearl

import "fmt"

// Step is what a chain's step function asks for next.
type Step struct {
	// Hold lets this many cycles pass before the next step. Zero still yields
	// to the events already scheduled at the current instant.
	Hold Time
	// Acquire, when not nil, takes a unit of the resource before the next
	// step: at once if one is free and nobody is queued, else behind the
	// earlier requesters. Hold is then ignored.
	Acquire *Resource
	// Await, when not nil, waits until the future is complete — not at all if
	// it already is. Hold is then ignored.
	Await *Future
	// Done ends the chain.
	Done bool
}

// waitKind is what a chain is waiting for.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitHold
	waitAcquire
	waitAwait
)

// Chain is a thread of control that owns no stack: a step function that
// returns what it waits for next and that the one event ending the wait calls
// again, in kernel context — a hold's expiry, or the zero-delay event that
// Resource.Release schedules for the chain it grants a unit to and
// Future.Complete for each chain awaiting it. A waiting component of a model
// owns a chain: its step function is a state machine that keeps what must
// survive a wait in the component and resumes from a program counter. An
// uncontended acquisition or a complete future is no wait at all: the step
// function is called again at once.
type Chain struct {
	k    *Kernel
	step func() Step

	// Spans, when set, is called when a wait that took virtual time ends,
	// before the step function runs, with the interval and what the chain
	// waited for: the owner's block spans for its timeline and bottleneck
	// collector. Kernel.ReasonText names the reason.
	Spans func(from, to Time, reason Reason)

	since  Time       // when the current wait began
	wait   waitKind   // what it is
	on     *Resource  // the resource of a waitAcquire
	next   *Chain     // the next chain awaiting the same Future
	rejoin *aheadLine // the line whose rejoin the chain waits for
}

// Init prepares c, typically a field of its owner, to run step on k.
func (c *Chain) Init(k *Kernel, step func() Step) {
	c.k, c.step = k, step
}

// Start schedules a call of the step function at the current time: one
// zero-delay event. A chain that has ended can be started again.
func (c *Chain) Start() { c.k.schedule(c.k.now, evChain, nil, c) }

// Reason describes what the chain waits for: "hold", "await", "acquire
// <resource>", or "" when it is not waiting.
func (c *Chain) Reason() string { return c.k.ReasonText(c.waitReason()) }

// waitReason is the Reason of the wait in progress, reasonNone outside one.
func (c *Chain) waitReason() Reason {
	switch c.wait {
	case waitHold:
		return ReasonHold
	case waitAcquire:
		return c.on.reason
	case waitAwait:
		return reasonAwait
	}
	return reasonNone
}

// await begins the wait s asks for and reports true, or reports false when
// there is nothing to wait for: the unit was free, the future complete.
func (c *Chain) await(s Step) bool {
	k := c.k
	switch {
	case s.Acquire == nil && s.Await == nil: // the commonest wait first
		if s.Hold < 0 {
			panic(fmt.Sprintf("pearl: chain asked to hold %d: negative duration", s.Hold))
		}
		if k.rejoined != nil { // the hold Rejoin returned
			k.pendRejoin(c)
		} else {
			k.schedule(k.now+s.Hold, evChain, nil, c)
		}
		c.wait = waitHold
	case s.Acquire != nil:
		if s.Acquire.TryAcquire() {
			return false
		}
		s.Acquire.waiters.push(c)
		c.wait, c.on = waitAcquire, s.Acquire
	default:
		f := s.Await
		if f.done {
			return false
		}
		last := &f.waiting
		for *last != nil {
			last = &(*last).next
		}
		*last = c
		c.wait = waitAwait
	}
	c.since = k.now
	return true
}

// wake schedules the zero-delay event that ends the chain's wait for a grant
// or a completion.
func (c *Chain) wake() { c.k.schedule(c.k.now, evChain, nil, c) }

// link fires a chain event: it reports the wait that has ended, books a
// granted unit, and calls the step function until the chain has to wait
// again or ends.
func (k *Kernel) link(c *Chain) {
	if c.wait != waitNone {
		if c.Spans != nil && k.now > c.since {
			c.Spans(c.since, k.now, c.waitReason())
		}
		if c.wait == waitAcquire {
			c.on.waitCycles += k.now - c.since
			c.on.acquires++
			c.on = nil
		}
		c.wait = waitNone
	}
	for {
		s := c.step()
		if s.Done || c.await(s) {
			return
		}
	}
}
