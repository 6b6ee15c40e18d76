package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

func TestNilProbeAccessors(t *testing.T) {
	var p *Probe
	if p.Timeline() != nil {
		t.Error("nil probe returned a timeline")
	}
	if New(Config{}).Timeline() != nil {
		t.Error("a probe without Timeline set returned a timeline")
	}
}

func TestNilTimelineNoOps(t *testing.T) {
	var tl *Timeline
	tr := tl.Track("x")
	tl.Span(tr, "s", 0, 10)
	if tl.Events() != 0 {
		t.Error("nil timeline recorded events")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil timeline JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil timeline emitted %d events", len(doc.TraceEvents))
	}
}

func TestTimelineWriteJSON(t *testing.T) {
	p := New(Config{Timeline: true})
	tl := p.Timeline()
	cpu := tl.Track("node0.cpu0")
	bus := tl.Track("node0.bus.0")
	link := tl.Track("net.link0.0.vc0")
	tl.Span(bus, "txn", 5, 9)
	tl.Span(cpu, "compute", 0, 10)
	tl.Span(link, "drop", 7, 7)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace-event JSON: %v\n%s", err, buf.String())
	}
	// Two groups (node0, net) and three tracks -> 5 metadata events, then the
	// recorded events sorted by timestamp.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("traceEvents = %d entries, want 8", len(doc.TraceEvents))
	}
	var meta, spans int
	lastTs := map[[2]int]int64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			continue
		case "X":
			spans++
			if ev.Dur == nil {
				t.Errorf("span %q lacks dur", ev.Name)
			}
		default:
			t.Errorf("unknown phase %q", ev.Ph)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Errorf("track %v timestamps not monotonic: %d after %d", key, ev.Ts, lastTs[key])
		}
		lastTs[key] = ev.Ts
	}
	if meta != 5 || spans != 3 {
		t.Errorf("meta/spans = %d/%d, want 5/3", meta, spans)
	}
	// The compute span (ts 0) must precede the bus span (ts 5) despite being
	// recorded second.
	if doc.TraceEvents[5].Name != "compute" || doc.TraceEvents[6].Name != "txn" {
		t.Errorf("events not time-sorted: %q then %q", doc.TraceEvents[5].Name, doc.TraceEvents[6].Name)
	}
	// Byte-identical re-export: the writer must be deterministic.
	var buf2 bytes.Buffer
	if err := tl.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON output differs between calls")
	}
}

// TestTimelineOrderIsContent records the same spans in two interleavings
// across tracks — each track's own spans in one order — and requires the
// same bytes: ties in time are ordered by track, then as their track
// recorded them, never by when another track recorded its spans.
func TestTimelineOrderIsContent(t *testing.T) {
	type span struct {
		track    int
		name     string
		from, to pearl.Time
	}
	perTrack := [][]span{
		{{0, "hold", 0, 4}, {0, "compute", 4, 4}, {0, "hold", 4, 9}},
		{{1, "txn", 4, 6}, {1, "txn", 4, 5}, {1, "txn", 9, 12}},
		{{2, "read", 0, 3}, {2, "write", 4, 9}},
	}
	record := func(order []int) string {
		tl := NewTimeline()
		tracks := []Track{tl.Track("node0.cpu0"), tl.Track("node0.bus.0"), tl.Track("node0.memory")}
		next := make([]int, len(perTrack))
		for _, tr := range order {
			sp := perTrack[tr][next[tr]]
			next[tr]++
			tl.Span(tracks[sp.track], sp.name, sp.from, sp.to)
		}
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	trackByTrack := record([]int{0, 0, 0, 1, 1, 1, 2, 2})
	interleaved := record([]int{2, 1, 0, 2, 1, 0, 1, 0})
	if trackByTrack != interleaved {
		t.Fatalf("one set of spans, two exports\ntrack by track:\n%s\ninterleaved:\n%s", trackByTrack, interleaved)
	}
	// At time 4: the CPU's two spans, as recorded, then the bus's two, as
	// recorded, then the memory's.
	var names []string
	for _, line := range strings.Split(trackByTrack, "\n") {
		if strings.Contains(line, `"ts":4,`) {
			names = append(names, line[strings.Index(line, `"name":`)+8:strings.Index(line, `","ph"`)])
		}
	}
	if got, want := strings.Join(names, " "), "compute hold txn txn write"; got != want {
		t.Errorf("events at time 4: %s, want %s", got, want)
	}
}

func TestKernelBlockSpansOptIn(t *testing.T) {
	k := pearl.NewKernel()
	p := New(Config{Timeline: true})
	tl := p.Timeline()
	// A component's chain reports its waits on its own track when it asks
	// to; a chain nobody observes records nothing.
	holds := func(ds ...pearl.Time) func() pearl.Step {
		return func() pearl.Step {
			if len(ds) == 0 {
				return pearl.Step{Done: true}
			}
			d := ds[0]
			ds = ds[1:]
			return pearl.Step{Hold: d}
		}
	}
	var tracked, ignored pearl.Chain
	tracked.Init(k, holds(10, 5))
	track := tl.Track("node0.cpu0")
	tracked.Spans = func(from, to pearl.Time, reason pearl.Reason) { tl.Span(track, k.ReasonText(reason), from, to) }
	ignored.Init(k, holds(7))
	tracked.Start()
	ignored.Start()
	k.Run()
	if tl.Events() != 2 {
		t.Fatalf("events = %d, want 2 (opt-in only)", tl.Events())
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"hold"`) || !strings.Contains(out, "node0.cpu0") {
		t.Errorf("block spans missing on the component's track:\n%s", out)
	}
}

// The one Prometheus renderer: metrics sorted by name, units as HELP lines,
// every metric a gauge — and the caller's slice left in its order.
func TestWritePrometheus(t *testing.T) {
	rs := []stats.Metric{
		{Name: "network mesh(2x2)/mean msg latency", Value: 12.5, Unit: "cyc"},
		{Name: "events", Value: 42},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, rs); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE mermaid_events gauge\nmermaid_events 42\n" +
		"# HELP mermaid_network_mesh_2x2__mean_msg_latency unit: cyc\n" +
		"# TYPE mermaid_network_mesh_2x2__mean_msg_latency gauge\nmermaid_network_mesh_2x2__mean_msg_latency 12.5\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	if rs[0].Name != "network mesh(2x2)/mean msg latency" {
		t.Error("WritePrometheus reordered the caller's metrics")
	}
}

// Distinct metric names must never fold into the same Prometheus metric
// name: "node0.cache.l1d" and "node0_cache.l1d" both sanitize to
// "mermaid_node0_cache_l1d", and a scraper rejects an exposition with
// duplicate names. Colliding groups get deterministic hash suffixes; names
// without collisions keep the familiar dots-to-underscores form.
func TestPromNamesCollisionFree(t *testing.T) {
	names := []string{
		"node0.cache.l1d",
		"node0_cache.l1d",
		"net.messages",
	}
	got := promNames(names)
	if got[2] != "mermaid_net_messages" {
		t.Errorf("uncontended name mangled: %q", got[2])
	}
	if got[0] == got[1] {
		t.Fatalf("colliding names map to the same metric %q", got[0])
	}
	for i, n := range got {
		if !strings.HasPrefix(n, "mermaid_node0_cache_l1d") && i < 2 {
			t.Errorf("collider %q lost its sanitized stem: %q", names[i], n)
		}
		for _, r := range n {
			legal := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !legal {
				t.Errorf("illegal rune %q in prometheus name %q", r, n)
			}
		}
	}
	// The mapping is per-exposition but deterministic: the same input set
	// must yield the same names on every scrape.
	again := promNames(names)
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("promNames not deterministic: %q then %q", got[i], again[i])
		}
	}
}

// WriteJSON encodes by hand; the bytes must be what encoding/json makes of
// the same events — the format the golden timelines were written in — for
// every kind of name, and through more than one flush of the buffer.
func TestTimelineWriteJSONMatchesEncodingJSON(t *testing.T) {
	type jsonEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  *int64         `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	names := []string{
		"plain", "", `quo"te`, `back\slash`, "tab\tnewline\n", "bell\a\b\f\r\x00\x1f\x7f", "<html>&amp;",
		"ünïcödé ☃ 😀", "line\u2028sep\u2029", "bad\xffutf8", "acquire node0.bus.0",
	}
	tl := NewTimeline()
	var want []jsonEvent
	meta := func(kind string, pid, tid int, name string) {
		want = append(want, jsonEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
	}
	// One group per name (each is its own first dot segment... unless it has
	// a dot), one track in it.
	var tracks []Track
	for _, n := range names {
		tracks = append(tracks, tl.Track("g"+n))
	}
	groups := map[string]int{}
	var pids, tids []int
	for _, n := range names {
		g := "g" + n
		if dot := strings.IndexByte(g, '.'); dot > 0 {
			g = g[:dot]
		}
		if _, ok := groups[g]; !ok {
			groups[g] = len(groups) + 1
			meta("process_name", groups[g], 0, g)
		}
		pids, tids = append(pids, groups[g]), append(tids, 1)
	}
	for i, n := range names {
		meta("thread_name", pids[i], tids[i], "g"+n)
	}
	const rounds = 400 // ≈ 300 KB: several flushes
	for ts := int64(0); ts < rounds; ts++ {
		for i, n := range names {
			dur := (ts + int64(i)) % 2 // zero-length spans keep "dur":0
			tl.Span(tracks[i], n, pearl.Time(ts), pearl.Time(ts+dur))
			want = append(want, jsonEvent{Name: n, Ph: "X", Ts: ts, Dur: &dur, Pid: pids[i], Tid: tids[i]})
		}
	}
	var ref bytes.Buffer
	ref.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, ev := range want {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			ref.WriteString(",\n")
		}
		ref.Write(data)
	}
	ref.WriteString("]}\n")
	var got bytes.Buffer
	if err := tl.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		g, w := got.Bytes(), ref.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo, hi := max(0, i-80), i+80
		t.Fatalf("WriteJSON differs from encoding/json at byte %d of %d/%d:\ngot  %q\nwant %q",
			i, len(g), len(w), g[lo:min(hi, len(g))], w[lo:min(hi, len(w))])
	}
	if got.Len() < 3*(60<<10) {
		t.Errorf("only %d bytes written: the test no longer spans several flushes", got.Len())
	}
}
