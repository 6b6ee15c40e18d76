package trace

import (
	"errors"
	"io"
	"testing"

	"mermaid/internal/ops"
)

// numbered returns n distinguishable operations.
func numbered(n int) []ops.Op {
	out := make([]ops.Op, n)
	for i := range out {
		out[i] = ops.NewLoad(ops.MemWord, uint64(i))
	}
	return out
}

// onceFailing is a batch source that yields its operations in batches of
// three and then fails exactly once: asked again it would claim a clean end
// of stream, which is what a sticky Cursor error must shield consumers from.
type onceFailing struct {
	SliceSource
	err   error
	calls int
}

func (s *onceFailing) NextBatch() ([]Event, error) {
	s.calls++
	if s.pos >= len(s.trace) {
		err := s.err
		s.err = io.EOF
		return nil, err
	}
	n := min(3, len(s.trace)-s.pos)
	b := make([]Event, n)
	for i := range b {
		b[i] = Event{Op: s.trace[s.pos+i]}
	}
	s.pos += n
	return b, nil
}

// plain hides a source's batch support, as Tee and FuncSource lack it.
type plain struct{ src Source }

func (p plain) Next() (Event, error) { return p.src.Next() }

func TestCursorPeekAdvance(t *testing.T) {
	for name, src := range map[string]Source{
		"batched, boundary every 3": &onceFailing{SliceSource: SliceSource{trace: numbered(10)}, err: io.EOF},
		"batched, one batch of 256": FromOps(numbered(10)),
		"plain source":              plain{FromOps(numbered(10))},
	} {
		t.Run(name, func(t *testing.T) {
			cur := NewCursor(src)
			for i := uint64(0); i < 10; i++ {
				// Peeking — any number of times, a batch boundary included —
				// consumes nothing.
				for rep := 0; rep < 3; rep++ {
					ev, err := cur.Peek()
					if err != nil || ev.Op.Addr != i {
						t.Fatalf("Peek #%d of op %d = %v, %v", rep, i, ev.Op, err)
					}
				}
				// Alternate the two ways of consuming it.
				if i%2 == 0 {
					cur.Advance()
				} else if ev, err := cur.Next(); err != nil || ev.Op.Addr != i {
					t.Fatalf("Next after Peek of op %d = %v, %v", i, ev.Op, err)
				}
			}
			for rep := 0; rep < 3; rep++ {
				if _, err := cur.Peek(); err != io.EOF {
					t.Fatalf("Peek at the end = %v, want io.EOF", err)
				}
				if _, err := cur.Next(); err != io.EOF {
					t.Fatalf("Next at the end = %v, want io.EOF", err)
				}
			}
		})
	}
}

func TestCursorErrorIsSticky(t *testing.T) {
	boom := errors.New("boom")
	src := &onceFailing{SliceSource: SliceSource{trace: numbered(4)}, err: boom}
	cur := NewCursor(src)
	for i := 0; i < 4; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// The consumer that peeks the failure declines the operation; the one
	// that then pulls it must see the failure, not the source's second
	// answer.
	if _, err := cur.Peek(); err != boom {
		t.Fatalf("Peek = %v, want the source's error", err)
	}
	calls := src.calls
	if _, err := cur.Next(); err != boom {
		t.Fatalf("Next after the failed Peek = %v, want the same error", err)
	}
	if _, err := cur.Peek(); err != boom {
		t.Fatalf("second Peek = %v, want the same error", err)
	}
	if src.calls != calls {
		t.Errorf("the source was asked again after it failed (%d more calls)", src.calls-calls)
	}
}
