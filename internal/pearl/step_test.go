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
