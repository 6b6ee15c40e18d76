package stats

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzValidateCSV holds the CSV layer to its contract. The input is read two
// ways. As a CSV document, ValidateCSV never panics on it, against the
// schema inferred from its own first line. As a table — lines of
// comma-separated cells, the first line the header, each row cut or padded
// to the header's width — what RenderCSV writes of it validates against the
// table's inferred schema, a lone empty cell included.
func FuzzValidateCSV(f *testing.F) {
	f.Add("name,cycles,ratio\njacobi,1200,0.5\npingpong,80,1e-3\n")
	f.Add("a,b\n\"quoted, cell\",2\n")
	f.Add("x\n1\n2.5\n")
	f.Add("col\n\n")
	f.Add("h1,h2\n1\n1,2,3\n")
	f.Add("k,v\r\n\"a\"\"b\",-7\r\n")
	f.Fuzz(func(t *testing.T, doc string) {
		lines := strings.Split(doc, "\n")
		header := strings.Split(lines[0], ",")
		rows := make([][]string, 0, len(lines)-1)
		for _, line := range lines[1:] {
			row := make([]string, len(header))
			copy(row, strings.Split(line, ","))
			rows = append(rows, row)
		}
		schema := inferSchema(header, rows)
		ValidateCSV(strings.NewReader(doc), schema) //nolint:errcheck // must not panic; any verdict goes

		tb := NewTable(header...)
		for _, row := range rows {
			cells := make([]any, len(row))
			for i, c := range row {
				cells[i] = c
			}
			tb.Row(cells...)
		}
		var buf bytes.Buffer
		if err := tb.RenderCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateCSV(bytes.NewReader(buf.Bytes()), tb.Schema()); err != nil {
			t.Fatalf("RenderCSV output fails its table's schema: %v\nwritten %q\nfrom %q", err, buf.Bytes(), doc)
		}
	})
}
