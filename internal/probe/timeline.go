package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mermaid/internal/pearl"
)

// Track identifies one horizontal lane of the timeline (one component: a
// CPU, a bus channel, a link virtual channel). Tracks are created once at
// construction and referenced by value on the hot path.
type Track int32

// Timeline records span and instant events in virtual time for the
// Chrome trace-event export. All methods are safe on a nil receiver, so
// components can hold a possibly-nil *Timeline and call it unconditionally
// only where a nil check would hurt readability; on hot paths they should
// check for nil themselves to skip argument evaluation.
//
// The recorder is deterministic: given the same simulation, the same events
// are recorded in the same order, so the JSON export is byte-identical
// across runs and host worker counts.
type Timeline struct {
	sampleEvery uint64
	n           uint64 // global event counter driving sampling

	tracks     []string
	trackIndex map[string]Track

	// procTracks holds the kernel-span opt-in set: only processes registered
	// with TrackProcess get their block spans recorded (packet and drain
	// helper processes would otherwise explode the track count).
	procTracks map[*pearl.Process]Track

	events []event
}

type event struct {
	name  string
	ts    int64
	dur   int64
	track Track
	ph    byte // 'X' complete span, 'i' instant
}

// NewTimeline returns a standalone, unsampled timeline recorder. Probes
// allocate their own timeline via New; this constructor is for reusing the
// recorder and its JSON writer on other time axes — internal/hostprobe
// records wall-clock microseconds through it.
func NewTimeline() *Timeline { return newTimeline(1) }

func newTimeline(sampleEvery uint64) *Timeline {
	return &Timeline{
		sampleEvery: sampleEvery,
		trackIndex:  make(map[string]Track),
		procTracks:  make(map[*pearl.Process]Track),
	}
}

// Track returns (creating on first use) the track with the given dotted
// component name, e.g. "node0.bus.0" or "net.link3.1.vc0". The first
// dot-separated segment groups tracks into one Perfetto process row.
func (t *Timeline) Track(name string) Track {
	if t == nil {
		return 0
	}
	if tr, ok := t.trackIndex[name]; ok {
		return tr
	}
	tr := Track(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.trackIndex[name] = tr
	return tr
}

// TrackProcess opts the given simulation process into kernel block-span
// recording on the named track: every time the process resumes, the span it
// spent blocked (hold, receive, resource acquisition) is emitted.
func (t *Timeline) TrackProcess(p *pearl.Process, name string) {
	if t == nil || p == nil {
		return
	}
	t.procTracks[p] = t.Track(name)
}

// sampled advances the global event counter and reports whether this event
// is kept under the configured sampling rate.
func (t *Timeline) sampled() bool {
	t.n++
	return t.sampleEvery <= 1 || t.n%t.sampleEvery == 0
}

// Span records a complete event covering [from, to] on the track.
func (t *Timeline) Span(tr Track, name string, from, to pearl.Time) {
	if t == nil || !t.sampled() {
		return
	}
	t.events = append(t.events, event{name: name, ts: int64(from), dur: int64(to - from), track: tr, ph: 'X'})
}

// Instant records a point event at virtual time at.
func (t *Timeline) Instant(tr Track, name string, at pearl.Time) {
	if t == nil || !t.sampled() {
		return
	}
	t.events = append(t.events, event{name: name, ts: int64(at), track: tr, ph: 'i'})
}

// ProcessSpan implements pearl.Tracer: the kernel calls it when a tracked
// process resumes after blocking, with the reason it was blocked. Processes
// not registered with TrackProcess are ignored.
func (t *Timeline) ProcessSpan(p *pearl.Process, from, to pearl.Time, reason string) {
	if t == nil {
		return
	}
	tr, ok := t.procTracks[p]
	if !ok {
		return
	}
	t.Span(tr, reason, from, to)
}

// Events returns how many events were recorded (after sampling).
func (t *Timeline) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON exports the timeline in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a {"traceEvents": [...]} document of metadata, span ('X') and instant
// ('i') events. Track names map to (pid, tid) pairs — the first dot segment
// of the track name is the process group — and events are ordered by
// timestamp, so per-track timestamps are monotonic. Virtual cycles are
// reported as microseconds, which Perfetto displays unscaled.
func (t *Timeline) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	// Assign pids by group (first dot segment) and tids within the group, in
	// track-creation order — deterministic, no map iteration.
	groupPid := make(map[string]int)
	var groups []string
	pids := make([]int, len(t.tracks))
	tids := make([]int, len(t.tracks))
	nextTid := make(map[string]int)
	for i, name := range t.tracks {
		group := name
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			group = name[:dot]
		}
		pid, ok := groupPid[group]
		if !ok {
			pid = len(groups) + 1
			groupPid[group] = pid
			groups = append(groups, group)
		}
		pids[i] = pid
		tids[i] = nextTid[group] + 1
		nextTid[group] = tids[i]
	}
	// Stable sort by timestamp: per-(pid,tid) timestamps come out monotonic
	// and equal-time events keep their deterministic recording order.
	order := make([]int, len(t.events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return t.events[order[a]].ts < t.events[order[b]].ts
	})

	// One buffer, flushed when it fills: no allocation and no reflection per
	// event. The bytes are those of encoding/json marshalling
	// {name, ph, ts, dur, pid, tid, s, args} with dur, s and args omitted
	// when unset.
	const flushAt = 60 << 10
	enc := &eventEncoder{w: w, buf: make([]byte, 0, 64<<10)}
	enc.buf = append(enc.buf, `{"displayTimeUnit":"ns","traceEvents":[`...)
	for i, g := range groups {
		enc.metadata("process_name", i+1, 0, g)
	}
	for i, name := range t.tracks {
		enc.metadata("thread_name", pids[i], tids[i], name)
	}
	for _, i := range order {
		ev := &t.events[i]
		enc.begin(ev.name, ev.ph, ev.ts)
		switch ev.ph {
		case 'X':
			// A zero-length span keeps an explicit "dur":0.
			enc.buf = strconv.AppendInt(append(enc.buf, `,"dur":`...), ev.dur, 10)
			enc.ids(pids[ev.track], tids[ev.track])
			enc.buf = append(enc.buf, '}')
		case 'i':
			enc.ids(pids[ev.track], tids[ev.track])
			enc.buf = append(enc.buf, `,"s":"t"}`...) // thread-scoped instant
		default:
			return fmt.Errorf("probe: unknown event phase %q", ev.ph)
		}
		if len(enc.buf) >= flushAt {
			enc.flush()
		}
	}
	enc.buf = append(enc.buf, "]}\n"...)
	enc.flush()
	return enc.err
}

// eventEncoder appends trace events to a buffer it writes out in large
// pieces, folding write errors so the export loop stays linear.
type eventEncoder struct {
	w     io.Writer
	buf   []byte
	err   error
	begun bool // an event has been written: the next one needs a separator
}

// begin appends the head of an event: {"name":…,"ph":…,"ts":…
func (e *eventEncoder) begin(name string, ph byte, ts int64) {
	if e.begun {
		e.buf = append(e.buf, ",\n"...)
	}
	e.begun = true
	e.buf = appendJSONString(append(e.buf, `{"name":`...), name)
	e.buf = append(e.buf, `,"ph":"`...)
	e.buf = append(e.buf, ph)
	e.buf = strconv.AppendInt(append(e.buf, `","ts":`...), ts, 10)
}

// ids appends ,"pid":…,"tid":…
func (e *eventEncoder) ids(pid, tid int) {
	e.buf = strconv.AppendInt(append(e.buf, `,"pid":`...), int64(pid), 10)
	e.buf = strconv.AppendInt(append(e.buf, `,"tid":`...), int64(tid), 10)
}

// metadata appends a whole metadata event naming a process or thread row.
func (e *eventEncoder) metadata(kind string, pid, tid int, name string) {
	e.begin(kind, 'M', 0)
	e.ids(pid, tid)
	e.buf = appendJSONString(append(e.buf, `,"args":{"name":`...), name)
	e.buf = append(e.buf, "}}"...)
}

func (e *eventEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// appendJSONString appends s as encoding/json would marshal it. Names are
// almost always plain ASCII, which is copied between quotes; anything
// encoding/json would escape — quotes, backslashes, control characters, the
// HTML-sensitive <, > and &, anything beyond ASCII — is left to it.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
