package hostprobe

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
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

// TestShardSpansAndReport drives a real sharded simulation with telemetry
// and the span hook attached, then checks the trace, the text report and
// the registry gauges against the telemetry record.
func TestShardSpansAndReport(t *testing.T) {
	const shards = 4
	g := pearl.NewShardGroup(shards, 8)
	tel := g.EnableTelemetry()
	tr := NewTrace()
	ShardSpans(tr, g)

	// A ring of cross-shard ping events: each shard forwards to the next at
	// +lookahead, for a fixed number of hops.
	var hops int
	var step func(src int, at pearl.Time)
	step = func(src int, at pearl.Time) {
		if hops++; hops >= 64 {
			return
		}
		dst := (src + 1) % shards
		g.Send(src, dst, at+8, uint64(hops), 0, func() { step(dst, at+8) })
	}
	g.Kernel(0).At(0, func() { step(0, 0) })
	g.Run()

	if tel.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	if tel.WindowEvents.Count != tel.Windows {
		t.Errorf("WindowEvents.Count = %d, Windows = %d", tel.WindowEvents.Count, tel.Windows)
	}
	if tel.Advance.Count != tel.Windows-1 {
		t.Errorf("Advance.Count = %d, want Windows-1 = %d", tel.Advance.Count, tel.Windows-1)
	}
	var sent, traffic uint64
	for i := range tel.Shards {
		sent += tel.Shards[i].Sent
	}
	for _, c := range tel.Traffic {
		traffic += c
	}
	if sent == 0 || sent != traffic {
		t.Errorf("Sent total %d vs Traffic total %d; want equal and > 0", sent, traffic)
	}

	// One span per shard per window, all named "window".
	doc := decodeTrace(t, tr)
	var windowSpans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "window" {
			windowSpans++
		}
	}
	if want := int(tel.Windows) * shards; windowSpans != want {
		t.Errorf("trace has %d window spans, want %d (windows %d x shards %d)",
			windowSpans, want, tel.Windows, shards)
	}

	var buf bytes.Buffer
	if err := WriteShardReport(&buf, tel); err != nil {
		t.Fatalf("WriteShardReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"parallel efficiency:", "busy%", "imbalance:",
		"window advance (cyc)", "events/window", "cross-shard events:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	reg := &probe.Registry{}
	RegisterShardStats(reg, tel)
	for _, want := range []string{"host.windows", "host.efficiency", "host.shard0.busy", "host.shard3.events"} {
		if reg.Lookup(want) == nil {
			t.Errorf("registry missing gauge %q", want)
		}
	}
	if e := reg.Lookup("host.windows"); e != nil && e.Read() != float64(tel.Windows) {
		t.Errorf("host.windows gauge = %v, want %d", e.Read(), tel.Windows)
	}
}

func TestWriteShardReportNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteShardReport(&buf, nil); err != nil {
		t.Fatalf("nil telemetry: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil telemetry wrote %q", buf.String())
	}
}

func TestLogHistBuckets(t *testing.T) {
	var h pearl.LogHist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count != 6 || h.MinV != 0 || h.MaxV != 1000 {
		t.Fatalf("Count=%d Min=%d Max=%d", h.Count, h.MinV, h.MaxV)
	}
	lo, hi := h.BucketRange()
	if lo != 0 || hi != 11 { // 1000 has bit length 10 -> bucket 10
		t.Errorf("BucketRange = (%d, %d), want (0, 11)", lo, hi)
	}
	if blo, bhi := h.BucketBounds(0); blo != 0 || bhi != 1 {
		t.Errorf("BucketBounds(0) = (%d, %d)", blo, bhi)
	}
	if blo, bhi := h.BucketBounds(3); blo != 4 || bhi != 8 {
		t.Errorf("BucketBounds(3) = (%d, %d)", blo, bhi)
	}
}
