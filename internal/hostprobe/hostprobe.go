// Package hostprobe is the workbench's telemetry about itself: wall-clock
// observability for the host-side machinery — the farm's workers, the
// service's job lifecycle — as opposed to internal/probe, which watches the
// *simulated* machine in virtual time.
//
// The two layers share formats but never mix data: a probe timeline's
// timestamps are simulated cycles, a hostprobe trace's are wall-clock
// microseconds. Host-side telemetry must never perturb simulation results;
// everything here only reads clocks and counters on the host, so reports
// and virtual-time timelines are byte-identical with and without it (pinned
// by the determinism tests in internal/machine).
//
// Like internal/probe, the layer is free when disabled: every method is
// safe and allocation-free on a nil receiver, so components hold a possibly
// nil *Trace and call it unconditionally.
package hostprobe

import (
	"io"
	"sync"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
)

// Trace records wall-clock span events for a Chrome trace-event
// export, Perfetto-loadable next to a virtual-time probe timeline. It
// reuses the probe timeline recorder and its JSON writer; timestamps are
// microseconds since the trace was created. Unlike the single-goroutine
// probe timeline, a host trace is fed concurrently — farm workers, HTTP
// handlers — so every method locks.
type Trace struct {
	mu sync.Mutex
	t0 time.Time
	tl *probe.Timeline
}

// NewTrace starts an empty trace; its epoch (timestamp zero) is now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), tl: probe.NewTimeline()}
}

// Track returns (creating on first use) the track with the given dotted
// name, e.g. "farm.w3". The first dot segment groups tracks
// into one Perfetto process row.
func (t *Trace) Track(name string) probe.Track {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tl.Track(name)
}

// ts converts a wall-clock instant to the trace's microsecond timeline,
// clamping times before the epoch to 0 so the export stays monotonic even
// if a caller passes a stale timestamp.
func (t *Trace) ts(at time.Time) pearl.Time {
	us := at.Sub(t.t0).Microseconds()
	if us < 0 {
		us = 0
	}
	return pearl.Time(us)
}

// Span records a complete event covering [from, to] on the track.
func (t *Trace) Span(tr probe.Track, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tl.Span(tr, name, t.ts(from), t.ts(to))
}

// SpanSince records a span from the given start to now — the usual
// "measure this block" call:
//
//	t0 := time.Now()
//	...work...
//	trace.SpanSince(tr, "stage", t0)
func (t *Trace) SpanSince(tr probe.Track, name string, from time.Time) {
	t.Span(tr, name, from, time.Now())
}

// Events returns how many events were recorded. 0 on a nil trace.
func (t *Trace) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tl.Events()
}

// WriteJSON exports the trace in the Chrome trace-event format. A nil
// trace writes an empty, still-loadable document.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return (*probe.Timeline)(nil).WriteJSON(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tl.WriteJSON(w)
}
