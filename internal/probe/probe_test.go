package probe

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
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
	if p.Registry() != nil {
		t.Error("nil probe returned a registry")
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	var c stats.Counter
	r.Counter("a.b", &c)
	r.Gauge("c.d", "", func() float64 { return 1 })
	r.Sample(10)
	if r.Entries() != nil || r.Lookup("a.b") != nil || r.Snapshot() != nil {
		t.Error("nil registry is not inert")
	}
	k := pearl.NewKernel()
	finish, err := r.StartSampler(k, 10, func(pearl.Time) { t.Error("nil registry sampled") })
	if err != nil {
		t.Fatalf("nil registry sampler: %v", err)
	}
	k.After(25, func() {})
	finish(k.Run())
	if k.EventCount() != 1 {
		t.Errorf("nil registry armed a sampling chain: %d events", k.EventCount())
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Errorf("nil registry CSV: %v", err)
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

func TestRegistryRegisterAndSnapshot(t *testing.T) {
	p := New(Config{})
	reg := p.Registry()
	var misses stats.Counter
	misses.Add(7)
	reg.Counter("node0.cache.l1d.misses", &misses)
	reg.Gauge("node0.bus.utilization", "", func() float64 { return 0.5 })
	if len(reg.Entries()) != 2 {
		t.Fatalf("Len = %d, want 2", len(reg.Entries()))
	}
	if e := reg.Lookup("node0.cache.l1d.misses"); e == nil || e.Read() != 7 {
		t.Fatalf("Lookup miss counter: %+v", e)
	}
	// Re-registering a name replaces the reader but keeps its position.
	reg.Gauge("node0.bus.utilization", "", func() float64 { return 0.75 })
	if len(reg.Entries()) != 2 {
		t.Fatalf("re-register grew the registry to %d", len(reg.Entries()))
	}
	ms := reg.Snapshot()
	if len(ms) != 2 {
		t.Fatalf("snapshot = %+v", ms)
	}
	if ms[0].Name != "node0.cache.l1d.misses" || ms[0].Value != 7 {
		t.Errorf("snapshot[0] = %+v", ms[0])
	}
	if ms[1].Value != 0.75 {
		t.Errorf("snapshot[1] = %+v, want replaced reader value 0.75", ms[1])
	}
}

func TestRegistrySamplerAndCSV(t *testing.T) {
	k := pearl.NewKernel()
	p := New(Config{})
	reg := p.Registry()
	var c stats.Counter
	reg.Counter("net.messages", &c)
	if _, err := reg.StartSampler(k, 0, reg.Sample); err == nil {
		t.Fatal("StartSampler accepted a zero interval")
	}
	// Nothing to sample arms nothing (the event count below has no extra
	// ticks) and leaves the registry free for the run's real chain.
	if _, err := reg.StartSampler(k, 10); err != nil {
		t.Fatal(err)
	}
	finish, err := reg.StartSampler(k, 10, reg.Sample)
	if err != nil {
		t.Fatal(err)
	}
	// One chain per run: further consumers join the first call, not a second.
	if _, err := reg.StartSampler(k, 10, reg.Sample); err == nil {
		t.Fatal("StartSampler armed a second chain on the same registry")
	}
	// Keep the simulation alive for 35 cycles; the counter grows along the way.
	k.After(5, func() { c.Add(1) })
	k.After(15, func() { c.Add(1) })
	k.After(35, func() { c.Add(1) })
	// The tick queued for 40 is a daemon event: the run ends with its last
	// model event, not at the next multiple of the interval.
	end := k.Run()
	if end != 35 {
		t.Fatalf("simulation ended at %d, want 35 (the last model event)", end)
	}
	if got := k.EventCount(); got != 3+3 {
		t.Errorf("%d events, want 3 model events + 3 ticks", got)
	}
	finish(end)
	e := reg.Lookup("net.messages")
	// Ticks at 10, 20 and 30, then the end-of-run sample at 35.
	if e.Series.Len() != 4 {
		t.Fatalf("samples = %d, want 4 (got T=%v)", e.Series.Len(), e.Series.T)
	}
	if e.Series.T[0] != 10 || e.Series.V[0] != 1 {
		t.Errorf("sample[0] = (%d, %g), want (10, 1)", e.Series.T[0], e.Series.V[0])
	}
	if e.Series.T[2] != 30 || e.Series.V[2] != 2 {
		t.Errorf("sample[2] = (%d, %g), want (30, 2)", e.Series.T[2], e.Series.V[2])
	}
	if e.Series.T[3] != 35 || e.Series.V[3] != 3 {
		t.Errorf("sample[3] = (%d, %g), want the end-of-run (35, 3)", e.Series.T[3], e.Series.V[3])
	}
	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cycle,net.messages" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,") || lines[4] != "35,3" {
		t.Errorf("CSV rows = %q", lines[1:])
	}
}

// A run that ends in the cycle of a tick must not leave two rows for that
// cycle: the end-of-run sample — taken after the instant's remaining events —
// replaces the tick's.
func TestSamplerEndOfRunReplacesSameCycleTick(t *testing.T) {
	k := pearl.NewKernel()
	reg := New(Config{}).Registry()
	var c stats.Counter
	reg.Counter("net.messages", &c)
	finish, err := reg.StartSampler(k, 10, reg.Sample)
	if err != nil {
		t.Fatal(err)
	}
	k.After(20, func() { c.Add(1) }) // same instant as the second tick, later sequence
	finish(k.Run())
	e := reg.Lookup("net.messages")
	if !reflect.DeepEqual(e.Series.T, []int64{10, 20}) || !reflect.DeepEqual(e.Series.V, []float64{0, 1}) {
		t.Errorf("series = %v %v, want [10 20] [0 1]", e.Series.T, e.Series.V)
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

// The CSV export is consumed by external tools, so its shape is pinned:
// columns appear in registration order behind the cycle column, and metric
// names containing CSV metacharacters (commas, quotes) are escaped per RFC
// 4180 rather than corrupting the header.
func TestWriteCSVDeterministicOrderAndEscaping(t *testing.T) {
	p := New(Config{})
	reg := p.Registry()
	reg.Gauge("plain.metric", "", func() float64 { return 1 })
	reg.Gauge(`latency,p99`, "cyc", func() float64 { return 2 })
	reg.Gauge(`say "hi"`, "", func() float64 { return 3 })
	reg.Sample(10)
	reg.Sample(20)

	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	wantHeader := `cycle,plain.metric,"latency,p99","say ""hi"""`
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q, want %q", lines[0], wantHeader)
	}

	// Round-trip through a real CSV reader: the embedded comma and quotes
	// must come back as the original metric names, in registration order.
	rd := csv.NewReader(strings.NewReader(buf.String()))
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not re-parse: %v", err)
	}
	want := []string{"cycle", "plain.metric", `latency,p99`, `say "hi"`}
	if !reflect.DeepEqual(rows[0], want) {
		t.Errorf("parsed header = %q, want %q", rows[0], want)
	}
	if rows[1][0] != "10" || rows[2][0] != "20" {
		t.Errorf("cycle column = %q/%q, want 10/20", rows[1][0], rows[2][0])
	}
	if rows[1][2] != "2" || rows[1][3] != "3" {
		t.Errorf("value row = %q, want columns in registration order", rows[1])
	}

	// A second export must be byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteCSV output differs between calls")
	}
}

// The one Prometheus renderer: metrics sorted by name, units as HELP lines,
// every metric a gauge — and the caller's slice left in registration order.
func TestWritePrometheus(t *testing.T) {
	reg := New(Config{}).Registry()
	reg.Gauge("net.latency.mean", "cyc", func() float64 { return 12.5 })
	reg.Gauge("kernel.events", "", func() float64 { return 42 })
	rs := reg.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, rs); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE mermaid_kernel_events gauge\nmermaid_kernel_events 42\n" +
		"# HELP mermaid_net_latency_mean unit: cyc\n# TYPE mermaid_net_latency_mean gauge\nmermaid_net_latency_mean 12.5\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	if rs[0].Name != "net.latency.mean" {
		t.Error("WritePrometheus reordered the caller's metrics")
	}
	if (*Registry)(nil).Snapshot() != nil || new(Registry).Snapshot() != nil {
		t.Error("empty registry snapshot is not nil")
	}
}

// Distinct registry names must never fold into the same Prometheus metric
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
