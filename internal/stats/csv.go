package stats

import (
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

// Schema is the column layout of one CSV artifact. Every CSV the workbench
// writes goes through a schema-checked writer (CSVWriter), and every CSV an
// artifact store reads back is re-validated against the schema its manifest
// recorded (ValidateCSV).
type Schema []Column

// header returns the column names in order.
func (s Schema) header() []string {
	h := make([]string, len(s))
	for i, c := range s {
		h[i] = c.Name
	}
	return h
}

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
// ColString. The result accepts exactly the rows it was inferred from, so
// writing a table through its inferred schema can never fail, while any
// later corruption of a numeric cell is caught on re-validation.
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

// CSVWriter is the single schema-validated CSV writer of the workbench:
// every row is checked against the schema (column count and per-cell type)
// before it is encoded, and encoding goes through encoding/csv so cells
// containing separators, quotes or newlines are escaped correctly.
type CSVWriter struct {
	w      io.Writer
	cw     *csv.Writer
	schema Schema
	line   int // last line written (1 = header)
}

// NewCSVWriter starts a schema-validated CSV stream on w and writes the
// header row derived from the schema.
func NewCSVWriter(w io.Writer, schema Schema) (*CSVWriter, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("stats: CSV schema must have at least one column")
	}
	cw := &CSVWriter{w: w, cw: csv.NewWriter(w), schema: schema, line: 1}
	if err := cw.write(schema.header()); err != nil {
		return nil, err
	}
	return cw, nil
}

// Write validates one data row against the schema and appends it.
func (w *CSVWriter) Write(row []string) error {
	if err := w.schema.checkRow(w.line+1, row); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if err := w.write(row); err != nil {
		return err
	}
	w.line++
	return nil
}

// write encodes one record. encoding/csv writes a record of one empty cell
// as a blank line, which readers skip, so that record is written quoted.
func (w *CSVWriter) write(record []string) error {
	if len(record) != 1 || record[0] != "" {
		return w.cw.Write(record)
	}
	w.cw.Flush()
	if err := w.cw.Error(); err != nil {
		return err
	}
	_, err := io.WriteString(w.w, "\"\"\n")
	return err
}

// Flush drains buffered rows and reports any deferred encoding error. Call
// it once after the last row.
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSV writes a complete schema-validated CSV document: header, every
// row checked, flushed.
func WriteCSV(w io.Writer, schema Schema, rows [][]string) error {
	cw, err := NewCSVWriter(w, schema)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return cw.Flush()
}

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
