package probe

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"mermaid/internal/pearl"
)

// fuzzNames are the name fragments FuzzTimelineJSON builds track and event
// names from: plain ones, group separators, and everything the JSON encoder
// must escape — quotes, backslashes, HTML-sensitive and control bytes,
// non-ASCII and invalid UTF-8.
var fuzzNames = []string{"pkt", "node0", ".", "cpu1", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\n", "é", " ", "\xff", "txn"}

// refEvent is one recorded event as the reference writer sees it.
type refEvent struct {
	name    string
	ph      byte
	ts, dur int64
	track   int
}

// referenceJSON is the writer's specification: tracks grouped into pids by
// their first dot segment, every event marshalled by encoding/json, and the
// events stably sorted by timestamp, then by track.
func referenceJSON(tracks []string, events []refEvent) []byte {
	type args struct {
		Name string `json:"name"`
	}
	type jsonEvent struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  *int64 `json:"dur,omitempty"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		S    string `json:"s,omitempty"`
		Args *args  `json:"args,omitempty"`
	}
	groupPid := map[string]int{}
	var groups []string
	pids, tids := make([]int, len(tracks)), make([]int, len(tracks))
	nextTid := map[string]int{}
	for i, name := range tracks {
		group := name
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			group = name[:dot]
		}
		if _, ok := groupPid[group]; !ok {
			groupPid[group] = len(groups) + 1
			groups = append(groups, group)
		}
		pids[i] = groupPid[group]
		nextTid[group]++
		tids[i] = nextTid[group]
	}
	var out []jsonEvent
	for i, g := range groups {
		out = append(out, jsonEvent{Name: "process_name", Ph: "M", Pid: i + 1, Args: &args{g}})
	}
	for i, name := range tracks {
		out = append(out, jsonEvent{Name: "thread_name", Ph: "M", Pid: pids[i], Tid: tids[i], Args: &args{name}})
	}
	sorted := append([]refEvent(nil), events...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].ts != sorted[b].ts {
			return sorted[a].ts < sorted[b].ts
		}
		return sorted[a].track < sorted[b].track
	})
	for _, ev := range sorted {
		je := jsonEvent{Name: ev.name, Ph: string(ev.ph), Ts: ev.ts, Pid: pids[ev.track], Tid: tids[ev.track]}
		if ev.ph == 'X' {
			je.Dur = &ev.dur
		} else {
			je.S = "t"
		}
		out = append(out, je)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, je := range out {
		if i > 0 {
			buf.WriteString(",\n")
		}
		data, err := json.Marshal(je)
		if err != nil {
			panic(err)
		}
		buf.Write(data)
	}
	buf.WriteString("]}\n")
	return buf.Bytes()
}

// FuzzTimelineJSON records random tracks and spans — equal
// timestamps, negative durations, timestamps spanning more than 2^32, names
// that need escaping, spans through ExtendSpan that often continue their
// track's open span — and requires WriteJSON to write exactly the
// reference's bytes, and valid JSON. The reference extends a span by
// growing its recorded event.
func FuzzTimelineJSON(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0}) // one track, no events
	f.Add([]byte("\x05\x04\x06\x07\x0c\x0e\x01\x02 two spans with equal times \x00\x00\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0x81, 0x13, 0xff, 0x7f, 0x00, 0x80, 0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff}, 12))
	// Through ExtendSpan on one track: a span at 9 lasting 4, five
	// continuations, a span of its name after a gap, and one of another name
	// where that one ends.
	ext := func(op, name, ts, dur byte) []byte { return []byte{op, 0, name, name, ts, 0, 0, 0, dur, 0, 0, 0, 0} }
	seed := append([]byte{1, 2, 3, 3, 0, 15, 15}, ext(0x03, 15, 9, 4)...)
	for i := 0; i < 5; i++ {
		seed = append(seed, ext(0x23, 0, 0, 2)...)
	}
	f.Add(append(append(seed, ext(0x03, 15, 100, 2)...), ext(0x03, 0, 102, 1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tl := NewTimeline()
		var tracks []string
		ntracks := 1 + int(data[0]%6)
		data = data[1:]
		for i := 0; i < ntracks; i++ {
			var name strings.Builder
			for j := 0; j < 3 && len(data) > 0; j++ {
				name.WriteString(fuzzNames[int(data[0])%len(fuzzNames)])
				data = data[1:]
			}
			if tl.Track(name.String()) == Track(len(tracks)) {
				tracks = append(tracks, name.String())
			}
		}
		var events []refEvent
		open := make([]int, len(tracks)) // each track's ExtendSpan index
		for i := range open {
			open[i] = -1
		}
		for len(data) >= 13 {
			op, tr, nm := data[0], int(data[1])%len(tracks), fuzzNames[int(data[2])%len(fuzzNames)]+fuzzNames[int(data[3])%len(fuzzNames)]
			ts := int64(int32(binary.LittleEndian.Uint32(data[4:])))
			dur := int64(int16(binary.LittleEndian.Uint16(data[8:])))
			if op&0x80 != 0 {
				ts <<= 24 // timestamps spanning more than 2^32
			} else if op&0x40 != 0 {
				ts &= 7 // many equal timestamps
			}
			data = data[13:]
			switch op % 4 {
			case 0, 2:
				tl.Span(Track(tr), nm, pearl.Time(ts), pearl.Time(ts+dur))
				events = append(events, refEvent{name: nm, ph: 'X', ts: ts, dur: dur, track: tr})
			case 1:
				tl.NamedSpan(Track(tr), tl.Name(nm), pearl.Time(ts), pearl.Time(ts+dur))
				events = append(events, refEvent{name: nm, ph: 'X', ts: ts, dur: dur, track: tr})
			case 3:
				at := open[tr]
				if at >= 0 && op&0x20 != 0 {
					nm, ts = events[at].name, events[at].ts+events[at].dur // a continuation
				}
				tl.ExtendSpan(&open[tr], Track(tr), tl.Name(nm), pearl.Time(ts), pearl.Time(ts+dur))
				if at >= 0 && events[at].name == nm && events[at].ts+events[at].dur == ts {
					events[at].dur += dur
				} else {
					events = append(events, refEvent{name: nm, ph: 'X', ts: ts, dur: dur, track: tr})
					if open[tr] != len(events)-1 {
						t.Fatalf("ExtendSpan opened span %d, want %d", open[tr], len(events)-1)
					}
				}
			}
		}
		want := referenceJSON(tracks, events)
		var got bytes.Buffer
		if err := tl.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteJSON differs from the reference:\n got %q\nwant %q", got.Bytes(), want)
		}
		if !json.Valid(want) {
			t.Fatalf("WriteJSON output is not valid JSON: %q", want)
		}
	})
}
