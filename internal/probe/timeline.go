package probe

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"mermaid/internal/pearl"
)

// Track identifies one horizontal lane of the timeline (one component: a
// CPU, a bus channel, a link virtual channel). Tracks are created once at
// construction and referenced by value on the hot path.
type Track int32

// Name is an event name interned by Timeline.Name. Components intern the
// names they emit when they are built and record with NamedSpan, so a span
// costs no string work.
type Name int32

// Timeline records span events in virtual time for the
// Chrome trace-event export. All methods are safe on a nil receiver, so
// components can hold a possibly-nil *Timeline and call it unconditionally
// only where a nil check would hurt readability; on hot paths they should
// check for nil themselves to skip argument evaluation.
//
// Every event is one fixed-width, pointer-free record in chunked storage:
// recording copies nothing already recorded and gives the garbage collector
// nothing to scan. Track and event names are resolved only by WriteJSON.
//
// The export is deterministic: it orders events by their content — time,
// track, and order within the track — so it is byte-identical across runs,
// host worker counts and execution paths that record each track's events in
// the same order.
type Timeline struct {
	tracks     []string
	trackIndex map[string]Track

	names     []string
	nameIndex map[string]Name

	events Chunks[record]
}

// record is one event: a complete span ('X').
type record struct {
	ts, dur int64
	track   Track
	name    Name
}

// NewTimeline returns an empty timeline recorder. Probes allocate their own
// timeline via New; this constructor is also for reusing the recorder and its
// JSON writer on other time axes — internal/hostprobe records wall-clock
// microseconds through it.
func NewTimeline() *Timeline {
	return &Timeline{
		trackIndex: make(map[string]Track),
		nameIndex:  make(map[string]Name),
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

// Name returns (interning on first use) the Name of an event name.
func (t *Timeline) Name(name string) Name {
	if t == nil {
		return 0
	}
	if id, ok := t.nameIndex[name]; ok {
		return id
	}
	id := Name(len(t.names))
	t.names = append(t.names, name)
	t.nameIndex[name] = id
	return id
}

// NamedSpan records a complete event named n covering [from, to] on the
// track.
func (t *Timeline) NamedSpan(tr Track, n Name, from, to pearl.Time) {
	if t == nil {
		return
	}
	t.events.Append(record{ts: int64(from), dur: int64(to - from), track: tr, name: n})
}

// ExtendSpan records a span as NamedSpan does, unless it continues span
// *open, one ExtendSpan recorded (negative: none), by its track and name and
// by ending at from. That span then ends at to, in the place it was recorded;
// otherwise *open becomes the new span's index. Back-to-back waits recorded
// through one index make one span per run of same-named waits.
func (t *Timeline) ExtendSpan(open *int, tr Track, n Name, from, to pearl.Time) {
	if t == nil {
		return
	}
	if *open >= 0 {
		if ev := t.events.At(*open); ev.track == tr && ev.name == n && ev.ts+ev.dur == int64(from) {
			ev.dur = int64(to) - ev.ts
			return
		}
	}
	*open = t.events.Len()
	t.NamedSpan(tr, n, from, to)
}

// Span records a complete event covering [from, to] on the track.
func (t *Timeline) Span(tr Track, name string, from, to pearl.Time) {
	if t == nil {
		return
	}
	t.NamedSpan(tr, t.Name(name), from, to)
}

// Events returns how many events were recorded.
func (t *Timeline) Events() int {
	if t == nil {
		return 0
	}
	return t.events.Len()
}

// WriteJSON exports the timeline in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a {"traceEvents": [...]} document of metadata and span ('X') events. Track names map to (pid, tid) pairs — the first dot segment
// of the track name is the process group — and events are ordered by
// timestamp, then by track, then in recording order within the track
// (sortByTime), so per-track timestamps are monotonic and the bytes depend
// only on what each track recorded. Virtual cycles are
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

	// The bytes are those of encoding/json marshalling {name, ph, ts, dur,
	// pid, tid, args} with args omitted when unset. What an event shares with
	// others is encoded once: per name its head up to the timestamp,
	// separator first, and per track its tail from the ids on.
	heads, headAt := encodeEach(len(t.names), func(buf []byte, i int) []byte {
		buf = appendJSONString(append(buf, ",\n{\"name\":"...), t.names[i])
		return append(buf, `,"ph":"X","ts":`...)
	})
	tails, tailAt := encodeEach(len(t.tracks), func(buf []byte, i int) []byte {
		return append(appendIDs(buf, pids[i], tids[i]), '}')
	})

	order := t.sortByTime()

	// One buffer, flushed when it fills: no allocation and no reflection per
	// event.
	const flushAt = 60 << 10
	enc := &eventEncoder{w: w, buf: make([]byte, 0, 64<<10)}
	enc.buf = append(enc.buf, `{"displayTimeUnit":"ns","traceEvents":[`...)
	for i, g := range groups {
		enc.metadata("process_name", i+1, 0, g)
	}
	for i, name := range t.tracks {
		enc.metadata("thread_name", pids[i], tids[i], name)
	}
	first := len(",\n") // the head bytes the first event skips: no separator after "["
	if enc.begun {
		first = 0
	}
	for _, i := range order {
		ev := t.events.At(int(i))
		h, tl := ev.name, ev.track
		buf := append(enc.buf, heads[headAt[h]+first:headAt[h+1]]...)
		first = 0
		buf = strconv.AppendInt(buf, ev.ts, 10)
		// A zero-length span keeps an explicit "dur":0.
		buf = strconv.AppendInt(append(buf, `,"dur":`...), ev.dur, 10)
		buf = append(buf, tails[tailAt[tl]:tailAt[tl+1]]...)
		if enc.buf = buf; len(buf) >= flushAt {
			enc.flush()
		}
	}
	enc.buf = append(enc.buf, "]}\n"...)
	enc.flush()
	return enc.err
}

// sortByTime returns the events' indices ordered by timestamp, equal
// timestamps by track, and events of one track and time in recording order.
// The order is a function of what was recorded, not of how recording
// interleaved across tracks: each track is written by one component in an
// order of its own, and a component that runs ahead of the kernel keeps it.
// A least-significant-digit radix sort orders them: one stable counting pass
// over the track ids, then one linear pass per 11 bits of the timestamps'
// range, over each timestamp's offset from the earliest (two or three for a
// run of up to 2^33 cycles).
func (t *Timeline) sortByTime() []uint32 {
	n := t.events.Len()
	ts := make([]int64, 0, n)            // in recording order
	next := make([]int, len(t.tracks)+1) // per track, where its next event goes
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, chunk := range t.events.chunks {
		for j := range chunk {
			ts = append(ts, chunk[j].ts)
			lo, hi = min(lo, chunk[j].ts), max(hi, chunk[j].ts)
			next[chunk[j].track+1]++
		}
	}
	for tr := 1; tr < len(next); tr++ {
		next[tr] += next[tr-1]
	}
	from, to := make([]uint32, n), make([]uint32, n)
	i := uint32(0)
	for _, chunk := range t.events.chunks {
		for j := range chunk {
			from[next[chunk[j].track]] = i
			next[chunk[j].track]++
			i++
		}
	}
	if lo >= hi {
		return from // no events, or all at one time
	}
	width := bits.Len64(uint64(hi) - uint64(lo))
	const digit = 11
	passes := (width + digit - 1) / digit
	step := (width + passes - 1) / passes
	mask := uint64(1)<<step - 1
	for shift := 0; shift < width; shift += step {
		var at [1 << digit]int
		for _, v := range ts {
			at[(uint64(v)-uint64(lo))>>shift&mask]++
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, i := range from {
			b := (uint64(ts[i]) - uint64(lo)) >> shift & mask
			to[at[b]] = i
			at[b]++
		}
		from, to = to, from
	}
	return from
}

// encodeEach encodes n byte strings into one slab: string i is
// slab[at[i]:at[i+1]].
func encodeEach(n int, encode func(buf []byte, i int) []byte) (slab []byte, at []int) {
	at = make([]int, n+1)
	for i := 0; i < n; i++ {
		slab = encode(slab, i)
		at[i+1] = len(slab)
	}
	return slab, at
}

// eventEncoder appends trace events to a buffer it writes out in large
// pieces, folding write errors so the export loop stays linear.
type eventEncoder struct {
	w     io.Writer
	buf   []byte
	err   error
	begun bool // an event has been written: the next one needs a separator
}

// appendIDs appends ,"pid":…,"tid":…
func appendIDs(buf []byte, pid, tid int) []byte {
	buf = strconv.AppendInt(append(buf, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(buf, `,"tid":`...), int64(tid), 10)
}

// metadata appends a whole metadata event naming a process or thread row.
func (e *eventEncoder) metadata(kind string, pid, tid int, name string) {
	if e.begun {
		e.buf = append(e.buf, ",\n"...)
	}
	e.begun = true
	e.buf = appendJSONString(append(e.buf, `{"name":`...), kind)
	e.buf = append(e.buf, `,"ph":"M","ts":0`...)
	e.buf = appendIDs(e.buf, pid, tid)
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
