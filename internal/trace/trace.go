// Package trace provides the interface between the application level and the
// architecture level of the workbench: streams of operations, and the
// multi-threaded, execution-driven trace generation with physical-time
// interleaving that keeps multiprocessor traces valid (§2, §3.1 of the
// paper).
//
// A trace-generating application runs as one goroutine per simulated node.
// Local operations flow freely (buffered, and batched — many operations per
// channel handoff) from the generator to the simulator. At every global
// event — an operation that can influence other processors — the generating
// thread suspends until the architecture simulator explicitly resumes it,
// feeding back what actually happened on the target machine (which source's
// message arrived first, what data it carried). The trace therefore is
// exactly the one that would be observed if the application executed on the
// target machine.
package trace

import (
	"fmt"
	"io"

	"mermaid/internal/ops"
)

// Feedback is what the simulator tells a suspended generator thread when
// resuming it after a global event.
type Feedback struct {
	// Peer is the actual communication partner: for a receive from AnyPeer,
	// the source whose message arrived first in simulated time.
	Peer int32
	// Tag echoes the message tag.
	Tag uint32
	// Payload carries the real data between application threads, routed
	// through the simulator so that data availability follows simulated
	// time.
	Payload any
}

// Event is one element of a generated trace: the operation plus the
// generator-side plumbing for global events.
type Event struct {
	Op ops.Op
	// Payload is the message data carried by send operations.
	Payload any
	// Resume, when non-nil, must receive exactly one Feedback when the
	// simulator has handled the global event; the generator thread is
	// suspended on it meanwhile.
	Resume chan Feedback
}

// Source yields a node's operation stream in execution order. Next returns
// io.EOF after the last event.
type Source interface {
	Next() (Event, error)
}

// BatchSource is implemented by sources that can hand over many operations
// per pull. A returned batch is non-empty, in execution order, and only
// valid until the next NextBatch call (implementations may recycle the
// backing buffer). Consumers that drain sources in a hot loop should go
// through a Cursor, which uses batch pulls when available.
type BatchSource interface {
	Source
	NextBatch() ([]Event, error)
}

// Cursor drains a Source batch-at-a-time: one interface call per batch
// instead of per operation, and for Thread sources one channel operation per
// batch. A Cursor over a plain (non-batch) Source degrades to per-event
// Next. The zero Cursor is not usable; create cursors with NewCursor.
type Cursor struct {
	src   Source
	batch BatchSource // nil when src has no batch support
	buf   []Event     // events pulled and not yet consumed: buf[pos:]
	pos   int
	one   [1]Event // backs buf for a plain Source
	err   error    // the error that ended the stream; sticky
}

// NewCursor wraps src for batched consumption.
func NewCursor(src Source) *Cursor {
	c := &Cursor{src: src}
	if bs, ok := src.(BatchSource); ok {
		c.batch = bs
	}
	return c
}

// Peek returns the next event without consuming it, pulling a fresh batch
// from the underlying source when the current one is exhausted; Advance
// consumes it. After the last event it returns io.EOF. An error — io.EOF
// included — is sticky: every later Peek and Next returns it again without
// asking the source, so a consumer that peeked the end of the stream on one
// path finds the same end on another.
func (c *Cursor) Peek() (Event, error) {
	if c.pos < len(c.buf) {
		return c.buf[c.pos], nil
	}
	for c.err == nil {
		c.pos = 0
		if c.batch != nil {
			c.buf, c.err = c.batch.NextBatch()
		} else {
			c.buf = c.one[:]
			c.one[0], c.err = c.src.Next()
		}
		if c.err == nil && len(c.buf) > 0 {
			return c.buf[0], nil
		}
	}
	c.buf = nil
	return Event{}, c.err
}

// Advance consumes the event the last successful Peek returned.
func (c *Cursor) Advance() { c.pos++ }

// Next returns the next event and consumes it: Peek, then Advance.
func (c *Cursor) Next() (Event, error) {
	ev, err := c.Peek()
	if err == nil {
		c.Advance()
	}
	return ev, err
}

// sourceBatch is the conversion chunk size for sources that materialise
// Event batches from a non-Event backing store.
const sourceBatch = 256

// SliceSource replays a fixed operation slice (trace-driven simulation).
type SliceSource struct {
	trace []ops.Op
	pos   int
	buf   []Event // reusable batch buffer for NextBatch
}

// FromOps wraps an operation slice as a Source.
func FromOps(trace []ops.Op) *SliceSource { return &SliceSource{trace: trace} }

// Next implements Source.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.trace) {
		return Event{}, io.EOF
	}
	o := s.trace[s.pos]
	s.pos++
	return Event{Op: o}, nil
}

// NextBatch implements BatchSource: it converts up to sourceBatch operations
// into a reused Event buffer, valid until the next call.
func (s *SliceSource) NextBatch() ([]Event, error) {
	if s.pos >= len(s.trace) {
		return nil, io.EOF
	}
	n := len(s.trace) - s.pos
	if n > sourceBatch {
		n = sourceBatch
	}
	if cap(s.buf) < n {
		s.buf = make([]Event, n)
	}
	b := s.buf[:n]
	for i := 0; i < n; i++ {
		b[i] = Event{Op: s.trace[s.pos+i]}
	}
	s.pos += n
	return b, nil
}

// ReaderSource replays a binary trace stream.
type ReaderSource struct {
	r   *ops.Reader
	buf []Event // reusable batch buffer for NextBatch
	err error   // deferred error: delivered after the batch read so far
}

// FromReader wraps a binary trace stream as a Source.
func FromReader(r io.Reader) *ReaderSource { return &ReaderSource{r: ops.NewReader(r)} }

// Next implements Source.
func (s *ReaderSource) Next() (Event, error) {
	if s.err != nil {
		err := s.err
		s.err = nil
		return Event{}, err
	}
	o, err := s.r.Read()
	if err != nil {
		return Event{}, err
	}
	return Event{Op: o}, nil
}

// NextBatch implements BatchSource: it decodes up to sourceBatch operations
// per call into a reused buffer, valid until the next call. A decode error
// or EOF hit mid-batch is returned on the following call, after the
// operations read before it.
func (s *ReaderSource) NextBatch() ([]Event, error) {
	if s.err != nil {
		err := s.err
		s.err = nil
		return nil, err
	}
	if s.buf == nil {
		s.buf = make([]Event, sourceBatch)
	}
	n := 0
	for n < len(s.buf) {
		o, err := s.r.Read()
		if err != nil {
			if n == 0 {
				return nil, err
			}
			s.err = err
			break
		}
		s.buf[n] = Event{Op: o}
		n++
	}
	return s.buf[:n], nil
}

// FuncSource adapts a generator function to a Source.
type FuncSource func() (Event, error)

// Next implements Source.
func (f FuncSource) Next() (Event, error) { return f() }

// Tee wraps a source, appending every operation that passes through to a
// writer — the mechanism the hybrid model uses to export traces (e.g.
// task-level traces derived from an instruction-level run).
type Tee struct {
	src Source
	w   *ops.Writer
}

// NewTee creates a tee of src into w.
func NewTee(src Source, w io.Writer) *Tee {
	return &Tee{src: src, w: ops.NewWriter(w)}
}

// Next implements Source.
func (t *Tee) Next() (Event, error) {
	ev, err := t.src.Next()
	if err != nil {
		if err == io.EOF {
			if ferr := t.w.Flush(); ferr != nil {
				return Event{}, ferr
			}
		}
		return Event{}, err
	}
	if werr := t.w.Write(ev.Op); werr != nil {
		return Event{}, werr
	}
	return ev, nil
}

// Collect drains a source into a slice (for tests and analysis).
func Collect(src Source) ([]ops.Op, error) {
	var out []ops.Op
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if ev.Resume != nil {
			return out, fmt.Errorf("trace: Collect cannot service global events; use a simulator")
		}
		out = append(out, ev.Op)
	}
}
