// Package trace provides the interface between the application level and the
// architecture level of the workbench: streams of operations, and the
// multi-threaded, execution-driven trace generation with physical-time
// interleaving that keeps multiprocessor traces valid (§2, §3.1 of the
// paper).
//
// A trace-generating application runs as one coroutine per simulated node,
// resumed by the simulator whenever it pulls that node's next operations.
// Local operations flow in batches — many operations per resumption. At
// every global event — an operation that can influence other processors —
// the generating thread suspends until the architecture simulator has
// answered it, feeding back what actually happened on the target machine
// (which source's message arrived first, what data it carried), and pulls
// again. The trace therefore is exactly the one that would be observed if
// the application executed on the target machine. A generator runs on the
// goroutine that pulls it, taking turns with the simulator: no channel, no
// goroutine of its own, and nothing it does depends on the host scheduler.
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

// Event is one element of a generated trace as Cursor.Next hands it out: the
// operation plus, for a global event, the generator-side plumbing.
type Event struct {
	Op ops.Op
	Global
}

// Global is the generator-side plumbing of a global event. Local operations
// carry none, and neither do the global events of a replayed trace: only a
// running generator has a payload to hand over or a thread to resume.
type Global struct {
	// Payload is the message data carried by send operations.
	Payload any
	// Resume, when non-nil, must be called exactly once, with the
	// simulator's answer, before the source is pulled again; the generator
	// thread is suspended at the global event meanwhile.
	Resume func(Feedback)
}

// Source yields a node's operation stream in execution order, many
// operations per pull. A returned batch is non-empty, in execution order,
// and only valid until the next NextBatch call (implementations may recycle
// the backing buffer, and the consumer must not write to it). A generator
// suspends at every global event, so only a batch's last operation can
// carry plumbing: g is that operation's, zero when it carries none. After
// the last batch NextBatch returns io.EOF. Consumers read sources through a
// Cursor.
type Source interface {
	NextBatch() (batch []ops.Op, g Global, err error)
}

// Cursor drains a Source batch-at-a-time: one interface call per batch
// instead of per operation, and for Thread sources one coroutine switch per
// batch. Operations are read in place, in the source's own storage; only
// Next copies one out. The zero Cursor is not usable; create cursors with
// NewCursor.
type Cursor struct {
	src Source
	buf []ops.Op // operations pulled and not yet consumed: buf[pos:]
	pos int
	g   Global // the plumbing of buf's last operation
	err error  // the error that ended the stream; sticky
}

// NewCursor wraps src for batched consumption.
func NewCursor(src Source) *Cursor { return &Cursor{src: src} }

// Peek returns the next operation without consuming it, pulling a fresh
// batch from the underlying source when the current one is exhausted;
// Advance consumes it. The operation is the source's own, valid until the
// cursor pulls again, and must not be written to. After the last operation
// Peek returns io.EOF. An error — io.EOF included — is sticky: every later
// Peek and Next returns it again without asking the source, so a consumer
// that peeked the end of the stream on one path finds the same end on
// another.
func (c *Cursor) Peek() (*ops.Op, error) {
	if c.pos < len(c.buf) {
		return &c.buf[c.pos], nil
	}
	for c.err == nil {
		c.pos = 0
		c.buf, c.g, c.err = c.src.NextBatch()
		if c.err == nil && len(c.buf) > 0 {
			return &c.buf[0], nil
		}
	}
	c.buf, c.g = nil, Global{}
	return nil, c.err
}

// Advance consumes the operation the last successful Peek returned.
func (c *Cursor) Advance() { c.pos++ }

// Next returns the next event and consumes it: Peek, then Advance. The last
// operation of a batch comes with the batch's plumbing.
func (c *Cursor) Next() (Event, error) {
	o, err := c.Peek()
	if err != nil {
		return Event{}, err
	}
	ev := Event{Op: *o}
	if c.pos++; c.pos == len(c.buf) {
		ev.Global = c.g
	}
	return ev, nil
}

// SliceSource replays operations held in memory (trace-driven simulation).
// NextBatch hands out the slice itself, so replaying copies nothing.
type SliceSource struct {
	trace []ops.Op // the operations not yet handed out
}

// FromOps wraps an operation slice as a Source.
func FromOps(trace []ops.Op) *SliceSource { return &SliceSource{trace: trace} }

// NextBatch implements Source: all the operations, in place.
func (s *SliceSource) NextBatch() ([]ops.Op, Global, error) {
	if len(s.trace) == 0 {
		return nil, Global{}, io.EOF
	}
	b := s.trace
	s.trace = nil
	return b, Global{}, nil
}

// readerBatch is how many operations a ReaderSource decodes per batch.
const readerBatch = 256

// ReaderSource replays a binary trace stream.
type ReaderSource struct {
	r   *ops.Reader
	buf []ops.Op // reusable batch buffer
	err error    // how the stream ended: delivered after the batch read so far
}

// FromReader wraps a binary trace stream as a Source.
func FromReader(r io.Reader) *ReaderSource { return &ReaderSource{r: ops.NewReader(r)} }

// NextBatch implements Source: it decodes up to readerBatch operations per
// call into a reused buffer, valid until the next call. A decode error or
// EOF hit mid-batch is returned on the following calls, after the
// operations read before it.
func (s *ReaderSource) NextBatch() ([]ops.Op, Global, error) {
	if s.err != nil {
		return nil, Global{}, s.err
	}
	if s.buf == nil {
		s.buf = make([]ops.Op, readerBatch)
	}
	n := 0
	for n < len(s.buf) {
		o, err := s.r.Read()
		if err != nil {
			s.err = err
			break
		}
		s.buf[n] = o
		n++
	}
	if n == 0 {
		return nil, Global{}, s.err
	}
	return s.buf[:n], Global{}, nil
}

// Collect drains a source into a slice (for tests and analysis).
func Collect(src Source) ([]ops.Op, error) {
	var out []ops.Op
	cur := NewCursor(src)
	for {
		ev, err := cur.Next()
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
