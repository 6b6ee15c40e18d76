package stats

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("b", 100)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.50") {
		t.Fatalf("row wrong: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Row(1, 2)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1.5:     "1.50",
		123.456: "123.5",
		0.123:   "0.123",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRenderSet(t *testing.T) {
	s := NewSet("machine")
	s.Put("cycles", 1000, "cyc")
	s.Sub("node0").Put("ipc", 0.8, "")
	var sb strings.Builder
	if err := RenderSet(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"machine", "cycles", "1000 cyc", "node0", "ipc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// RenderSet formats by hand; its lines must be those of the format string it
// replaced, whatever the names and values.
func TestRenderSetMatchesFormat(t *testing.T) {
	s := NewSet("machine")
	s.Put("cycles", 1000, "cyc")
	s.Put("a name of exactly twenty-8 ch", 0.5, "")
	s.Put("a name longer than twenty-eight characters", -3.25, "cyc")
	s.Put("größe µs ☃", 1e15, "µs")
	s.Put("", 123.456, "B")
	deep := s.Sub("node0").Sub("cpu0").Sub("L1")
	deep.Put("hit ratio", 0.98765, "")
	deep.Put("misses", 1e-9, "")
	s.Sub("empty")
	var ref func(sb *strings.Builder, s *Set, depth int)
	ref = func(sb *strings.Builder, s *Set, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(sb, "%s%s\n", indent, s.Name)
		for _, m := range s.Metrics {
			unit := m.Unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(sb, "%s  %-28s %s%s\n", indent, m.Name, FormatFloat(m.Value), unit)
		}
		for _, sub := range s.Subsets {
			ref(sb, sub, depth+1)
		}
	}
	var want, got strings.Builder
	ref(&want, s, 0)
	if err := RenderSet(&got, s); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("RenderSet wrote\n%s\nwant\n%s", got.String(), want.String())
	}
}

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	err := BarChart(&sb, "hits", []string{"L1", "L2"}, []float64{100, 50}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "##########") {
		t.Fatalf("largest bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "#####") {
		t.Fatalf("half bar missing:\n%s", out)
	}
}

func TestBarChartMismatch(t *testing.T) {
	if err := BarChart(&strings.Builder{}, "t", []string{"a"}, nil, 10); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestBarChartSmallNonZeroVisible(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "t", []string{"big", "tiny"}, []float64{1000, 1}, 20); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "tiny") && !strings.Contains(line, "#") {
			t.Fatal("non-zero value rendered with no bar")
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty string")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length = %d, want 4", len([]rune(s)))
	}
	flat := Sparkline([]float64{5, 5, 5})
	runes := []rune(flat)
	if runes[0] != runes[1] || runes[1] != runes[2] {
		t.Fatal("flat series should render identical glyphs")
	}
}

func TestRenderHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 2, 3, 8, 9} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := RenderHistogram(&sb, "latency", &h, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "latency") {
		t.Fatal("title missing")
	}
	if !strings.Contains(sb.String(), "8-15") {
		t.Fatalf("bucket label missing:\n%s", sb.String())
	}
}

// renderBound sizes the buffer RenderSet writes into: exact for whole
// numbers, never short for the others a report holds.
func TestRenderBound(t *testing.T) {
	whole, mixed := NewSet("machine"), NewSet("machine")
	for i, v := range []float64{0, 7, 10, 99, 100, 123456789, 999999999999999, -1, -10, -4096} {
		whole.Sub(fmt.Sprintf("node%d", i)).Put(fmt.Sprintf("metric %d with a long name beyond the column", i), v, "cyc")
		whole.Put("m", v, "")
	}
	for _, v := range []float64{0.5, 3.25, 123.456, -0.001, 1e15, 12345678.9} {
		mixed.Sub("node").Put("m", v, "B")
	}
	for _, s := range []*Set{whole, mixed} {
		var sb strings.Builder
		if err := RenderSet(&sb, s); err != nil {
			t.Fatal(err)
		}
		got, bound := sb.Len(), renderBound(s, 0)
		if bound < got || (s == whole && bound != got) {
			t.Errorf("renderBound = %d for %d bytes written", bound, got)
		}
	}
}
