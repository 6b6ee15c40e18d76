package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is an aligned ASCII table builder, the workhorse of the analysis
// tools' terminal output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be useful.
func FormatFloat(v float64) string { return string(appendFloat(nil, v)) }

// appendFloat appends FormatFloat(v) to buf.
func appendFloat(buf []byte, v float64) []byte {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 100:
		return strconv.AppendFloat(buf, v, 'f', 1, 64)
	case a >= 1:
		return strconv.AppendFloat(buf, v, 'f', 2, 64)
	default:
		return strconv.AppendFloat(buf, v, 'g', 4, 64)
	}
}

// Render writes the table, space-aligned with a rule under the header.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := 0
	for i, wd := range widths {
		total += wd
		if i > 0 {
			total += 2
		}
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// Header returns the column names.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted data rows in insertion order. The slice is the
// table's own storage; callers must not mutate it.
func (t *Table) Rows() [][]string { return t.rows }

// Schema infers the table's CSV schema from its formatted cells (see
// InferSchema), attaching the given per-column units if any.
func (t *Table) Schema(units ...string) Schema {
	return InferSchema(t.header, t.rows).WithUnits(units)
}

// RenderCSV writes the table as CSV for post-mortem analysis in external
// tools. It goes through the workbench's single schema-validated CSV writer:
// the schema is inferred from the table itself, so writing cannot fail on
// type grounds, while the artifact gains a schema any reader can re-validate
// against.
func (t *Table) RenderCSV(w io.Writer) error {
	return WriteCSV(w, t.Schema(), t.rows)
}

// RenderSet writes a metric set (and its subsets, indented) as
// "name: value unit" lines.
func RenderSet(w io.Writer, s *Set) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		// A buffer is told how much is coming: the report of a 16,384-node
		// machine is megabytes, and growing to it by doubling leaves as much
		// again in dead copies, which nothing here allocates enough to have
		// collected.
		g.Grow(renderBound(s, 0))
	}
	var buf []byte
	return renderSet(w, s, 0, &buf)
}

// nameWidth is the column metric names are padded to.
const nameWidth = 28

// renderBound returns the number of bytes renderSet writes for s, or a little
// more: whole numbers, most of a report, are counted exactly.
func renderBound(s *Set, depth int) int {
	n := 2*depth + len(s.Name) + 1
	for _, m := range s.Metrics {
		value := 24 // generous for anything FormatFloat prints with decimals
		if v := int64(m.Value); m.Value == float64(v) && m.Value < 1e15 && m.Value > -1e15 {
			if value = 1; v < 0 {
				value, v = 2, -v
			}
			for ; v >= 10; v /= 10 {
				value++
			}
		}
		if m.Unit != "" {
			value += 1 + len(m.Unit)
		}
		n += 2*(depth+1) + max(nameWidth, len(m.Name)) + 1 + value + 1
	}
	for _, sub := range s.Subsets {
		n += renderBound(sub, depth+1)
	}
	return n
}

// renderSet formats one set into *buf — a machine report is tens of
// thousands of these lines — and writes it out before descending.
func renderSet(w io.Writer, s *Set, depth int, buf *[]byte) error {
	indent := func(b []byte, depth int) []byte {
		for ; depth > 0; depth-- {
			b = append(b, "  "...)
		}
		return b
	}
	b := append(indent((*buf)[:0], depth), s.Name...)
	b = append(b, '\n')
	for _, m := range s.Metrics {
		b = append(indent(b, depth+1), m.Name...)
		for n := utf8.RuneCountInString(m.Name); n < nameWidth; n++ {
			b = append(b, ' ')
		}
		b = appendFloat(append(b, ' '), m.Value)
		if m.Unit != "" {
			b = append(append(b, ' '), m.Unit...)
		}
		b = append(b, '\n')
	}
	*buf = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	for _, sub := range s.Subsets {
		if err := renderSet(w, sub, depth+1, buf); err != nil {
			return err
		}
	}
	return nil
}

// BarChart renders labelled values as a horizontal ASCII bar chart, scaled to
// width characters for the largest value.
func BarChart(w io.Writer, title string, labels []string, values []float64, width int) error {
	if len(labels) != len(values) {
		return fmt.Errorf("stats: %d labels for %d values", len(labels), len(values))
	}
	if width <= 0 {
		width = 50
	}
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	var max float64
	labelW := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(v / max * float64(width))
		}
		if v > 0 && n == 0 {
			n = 1
		}
		if _, err := fmt.Fprintf(w, "  %-*s |%s %s\n", labelW, labels[i], strings.Repeat("#", n), FormatFloat(v)); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders a series as a compact one-line plot using block glyphs.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// RenderHistogram writes a histogram's non-empty buckets as a bar chart.
func RenderHistogram(w io.Writer, title string, h *Histogram, width int) error {
	rows := h.Buckets()
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		if r[0] == r[1] {
			labels[i] = fmt.Sprintf("%d", r[0])
		} else {
			labels[i] = fmt.Sprintf("%d-%d", r[0], r[1])
		}
		values[i] = float64(r[2])
	}
	return BarChart(w, title, labels, values, width)
}
