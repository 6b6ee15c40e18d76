package hostprobe

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// traceDoc mirrors the Chrome trace-event export for validation.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  *int64 `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

func decodeTrace(t *testing.T, tr *Trace) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestTraceExport(t *testing.T) {
	tr := NewTrace()
	epoch := tr.t0
	a := tr.Track("farm.w0")
	b := tr.Track("farm.w1")
	tr.Span(a, "run", epoch, epoch.Add(5*time.Millisecond))
	tr.Span(b, "run", epoch.Add(time.Millisecond), epoch.Add(3*time.Millisecond))
	tr.Span(a, "run", epoch.Add(6*time.Millisecond), epoch.Add(7*time.Millisecond))
	if got := tr.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}

	doc := decodeTrace(t, tr)
	// Per-(pid,tid) timestamps must be monotonic, spans must carry a duration
	// and every timestamp must be non-negative.
	lastTs := map[[2]int]int64{}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < 0 {
			t.Errorf("event %q at negative ts %d", ev.Name, ev.Ts)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Errorf("track %v: ts %d after %d — not monotonic", key, ev.Ts, lastTs[key])
		}
		lastTs[key] = ev.Ts
		if ev.Ph == "X" {
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("span %q missing or negative dur", ev.Name)
			}
		}
	}
	if spans != 3 {
		t.Errorf("got %d spans; want 3", spans)
	}
}

func TestTraceClampsPreEpoch(t *testing.T) {
	tr := NewTrace()
	a := tr.Track("x")
	tr.Span(a, "early", tr.t0.Add(-time.Second), tr.t0.Add(time.Millisecond))
	doc := decodeTrace(t, tr)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Errorf("pre-epoch time not clamped: ts %d", ev.Ts)
		}
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	track := tr.Track("x")
	tr.Span(track, "s", time.Now(), time.Now())
	tr.SpanSince(track, "s", time.Now())
	if tr.Events() != 0 {
		t.Error("nil trace has events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil export has %d events", len(doc.TraceEvents))
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			track := tr.Track([]string{"a.0", "a.1", "b.0", "b.1"}[i%4])
			for j := 0; j < 100; j++ {
				t0 := time.Now()
				tr.SpanSince(track, "work", t0)
			}
		}(i)
	}
	wg.Wait()
	if got := tr.Events(); got != 800 {
		t.Fatalf("Events() = %d, want 800", got)
	}
	decodeTrace(t, tr)
}
