package pearl

// step fires the next scheduled event on the calling goroutine and reports
// false when the schedule is empty. It exists for the tests and benchmarks
// that price a single callback event; an event that activates a process
// needs the baton protocol of a real drive, so it is refused here.
func (k *Kernel) step() bool {
	idx, fromHeap, ok := k.front()
	if !ok {
		return false
	}
	if p := k.fire(idx, fromHeap); p != nil {
		panic("pearl: step activated " + p.String() + "; drive processes with Run")
	}
	return true
}

// blocked returns the processes that are alive but have no pending event to
// resume them: with an idle kernel these are deadlocked.
func (k *Kernel) blocked() []*Process {
	var out []*Process
	for _, p := range k.procs {
		if !p.terminated && !p.runnable {
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
		k.daemons--
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
