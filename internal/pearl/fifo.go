package pearl

import "slices"

// fifo is the queue under mailboxes and wait lists. pop clears the slot it
// empties and advances a head index instead of re-slicing, so the queue
// neither keeps what it handed out reachable nor sheds capacity: in steady
// state it allocates nothing.
type fifo[T comparable] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

func (f *fifo[T]) push(v T) {
	// Full, and at least half of it popped: slide the live part down rather
	// than grow, so a queue that never quite drains stays bounded.
	if n := len(f.q); n == cap(f.q) && f.head > 0 && 2*f.head >= n {
		live := copy(f.q, f.q[f.head:])
		clear(f.q[live:])
		f.q, f.head = f.q[:live], 0
	}
	f.q = append(f.q, v)
}

// pop removes and returns the front element; the queue must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// remove deletes the first element equal to v, if there is one.
func (f *fifo[T]) remove(v T) {
	if i := slices.Index(f.q[f.head:], v); i >= 0 {
		f.q = slices.Delete(f.q, f.head+i, f.head+i+1)
	}
}
