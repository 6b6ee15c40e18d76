package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mermaid/internal/hostprobe"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary: the layer's name, its wall-clock interval, the span that
// caused it and the request it belongs to.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int // index into tracer.spans, -1 for a root
	Req    int // request / job / execution identifier
	Lane   int // concurrent client or worker the span ran on
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced operations share the traced code path and differ
// only in the cost of the appends — that difference is bench.trace_overhead.
type tracer struct {
	mu    sync.Mutex
	spans []span
	host  *hostprobe.Trace // created with the tracer so both share an epoch
}

func newTracer() *tracer { return &tracer{host: hostprobe.NewTrace()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req, Lane: lane})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS returns every closed span's duration by name, in
// milliseconds, in recording order.
func (t *tracer) durationsMS() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if !s.End.IsZero() {
			out[s.Name] = append(out[s.Name], ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeChrome exports the spans as Chrome trace-event JSON through the
// repository's own host-trace writer: one track per lane, the request id in
// the event name.
func (t *tracer) writeChrome(w io.Writer) error {
	if t == nil {
		return (*hostprobe.Trace)(nil).WriteJSON(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		trk := t.host.Track(fmt.Sprintf("bench.lane%d", s.Lane))
		t.host.Span(trk, fmt.Sprintf("%s #%d", s.Name, s.Req), s.Start, s.End)
	}
	return t.host.WriteJSON(w)
}
