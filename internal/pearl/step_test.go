package pearl

// step fires the next scheduled event on the calling goroutine and reports
// false when the schedule is empty. It exists for the tests and benchmarks
// that price a single event.
func (k *Kernel) step() bool {
	idx, fromHeap, ok := k.front()
	if !ok {
		return false
	}
	k.fire(idx, fromHeap)
	return true
}

// blocked returns the processes that have started, not terminated and are
// waiting: with an idle kernel these are deadlocked. (A woken wait counts
// until its event fires; every caller reads an idle or cut kernel, where no
// wake is pending.)
func (k *Kernel) blocked() []*Process {
	var out []*Process
	for _, p := range k.procs.list {
		if !p.terminated && p.c.wait != waitNone {
			out = append(out, p)
		}
	}
	return out
}

// drop unlinks the next event unfired and reports whether there was one. It
// reads the queue past FinishAt, whose daemon events behind the clock never
// fire.
func (k *Kernel) drop() bool {
	idx, fromHeap, ok := k.front()
	if !ok {
		return false
	}
	k.remove(idx, fromHeap)
	if k.slots[idx].kind == evDaemon {
		k.daemonGone(k.slots[idx].at)
	}
	k.live--
	k.release(idx)
	return true
}

// blockReason returns a short description of what the process is currently
// blocked on; empty if running or terminated. For diagnostics.
func (p *Process) blockReason() string {
	if p.receiving != "" {
		return p.receiving
	}
	return p.c.Reason()
}

// queueLen returns the number of chains (processes among them) waiting to
// acquire.
func (r *Resource) queueLen() int { return r.waiters.len() }
