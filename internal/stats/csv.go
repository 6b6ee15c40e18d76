package stats

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ColType is the value domain of one CSV column. Typed columns let the
// experiment pipeline reject corrupted or hand-edited artifacts at read time
// with an error naming the offending column.
type ColType string

// The three column domains: free text, integers, and floats (which also
// accept integer-rendered values — FormatFloat prints whole floats without a
// decimal point).
const (
	ColString ColType = "string"
	ColInt    ColType = "int"
	ColFloat  ColType = "float"
)

// Column describes one CSV column: its header name, its value domain, and an
// optional measurement unit (recorded in run manifests and summaries, never
// in the CSV itself).
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
	Unit string  `json:"unit,omitempty"`
}

// Schema is the column layout of one CSV artifact. The experiment pipeline
// records each file's schema in its manifest when it writes the file, and
// checks the file against it when the file is read back (ValidateCSV); a
// file is not checked as it is written.
type Schema []Column

// checkHeader verifies a read-back header row matches the schema exactly.
func (s Schema) checkHeader(row []string) error {
	if len(row) != len(s) {
		return fmt.Errorf("header has %d columns, schema wants %d", len(row), len(s))
	}
	for i, c := range s {
		if row[i] != c.Name {
			return fmt.Errorf("header column %d is %q, schema wants %q", i+1, row[i], c.Name)
		}
	}
	return nil
}

// checkRow validates one data row against the schema: the column count must
// match and every cell must parse under its column's type. line is the
// 1-based CSV line number used in error messages (line 1 is the header).
func (s Schema) checkRow(line int, row []string) error {
	if len(row) != len(s) {
		return fmt.Errorf("row %d has %d columns, schema wants %d", line, len(row), len(s))
	}
	for i, c := range s {
		if err := c.check(row[i]); err != nil {
			return fmt.Errorf("row %d, column %q: %w", line, c.Name, err)
		}
	}
	return nil
}

// check validates one cell against the column's type.
func (c Column) check(cell string) error {
	switch c.Type {
	case ColString:
		return nil
	case ColInt:
		if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
			return fmt.Errorf("%q is not an integer", cell)
		}
	case ColFloat:
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			return fmt.Errorf("%q is not a number", cell)
		}
	default:
		return fmt.Errorf("unknown column type %q", c.Type)
	}
	return nil
}

// inferSchema derives a schema from a header and the data rows: a column is
// ColInt when every cell parses as an integer, ColFloat when every cell
// parses as a number, and ColString otherwise. A column with no rows is
// ColString. The result accepts every row of the header's width it was
// inferred from, so a later corruption of a numeric cell is caught when the
// file is read back.
func inferSchema(header []string, rows [][]string) Schema {
	s := make(Schema, len(header))
	for i, name := range header {
		t := ColString
		if len(rows) > 0 {
			t = ColInt
			for _, row := range rows {
				if i >= len(row) {
					t = ColString
					break
				}
				cell := row[i]
				if t == ColInt {
					if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
						continue
					}
					t = ColFloat
				}
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					t = ColString
					break
				}
			}
		}
		s[i] = Column{Name: name, Type: t}
	}
	return s
}

// withUnits returns a copy of the schema with per-column units attached
// (missing or empty entries leave the column unitless).
func (s Schema) withUnits(units []string) Schema {
	out := make(Schema, len(s))
	copy(out, s)
	for i := range out {
		if i < len(units) {
			out[i].Unit = units[i]
		}
	}
	return out
}

// csvEncoder is the workbench's one CSV encoder. Text records go through
// encoding/csv, which quotes a cell holding a separator, a quote or a line
// break; a record of one empty cell, which encoding/csv writes as a blank
// line that readers skip, is written quoted. A history row, all numbers,
// needs no quoting and is written to bw as formatted. Write errors stick in
// bw, and flush returns them.
type csvEncoder struct {
	bw *bufio.Writer
	cw *csv.Writer // writes straight into bw: bufio.NewWriter returns bw itself
}

func newCSVEncoder(w io.Writer) *csvEncoder {
	bw := bufio.NewWriter(w)
	return &csvEncoder{bw: bw, cw: csv.NewWriter(bw)}
}

// record writes one text record.
func (e *csvEncoder) record(cells []string) {
	if len(cells) == 1 && cells[0] == "" {
		e.bw.WriteString("\"\"\n")
		return
	}
	e.cw.Write(cells)
}

func (e *csvEncoder) flush() error { return e.bw.Flush() }

// ValidateCSV re-validates a CSV document against its schema: the header
// must match exactly and every row must pass checkRow. The first violation
// is returned with its line number and column name — this is how an
// artifact store rejects corrupted or hand-edited run data.
func ValidateCSV(r io.Reader, schema Schema) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // the schema checks counts, with better errors
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("stats: reading CSV header: %w", err)
	}
	if err := schema.checkHeader(header); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("stats: reading CSV row %d: %w", line, err)
		}
		if err := schema.checkRow(line, row); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
	}
}
