package stats

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// The escaping + validation regression path: cells carrying every CSV
// special character must survive a write → validate → read round trip, and
// a corrupted numeric cell must be rejected with an error naming the
// column.
func TestCSVWriterEscapingRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "name", Type: ColString},
		{Name: "cycles", Type: ColInt, Unit: "cyc"},
		{Name: "ratio", Type: ColFloat},
	}
	tb := NewTable("name", "cycles", "ratio")
	tb.Row(`comma, inside`, "42", "0.5")
	tb.Row(`quote " inside`, "-7", "1e3")
	tb.Row("newline\ninside", "0", "3.25")
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCSV(strings.NewReader(sb.String()), schema); err != nil {
		t.Fatalf("round trip failed validation: %v", err)
	}
	// The quoted comma must not have split the row.
	if !strings.Contains(sb.String(), `"comma, inside"`) {
		t.Errorf("comma cell not quoted:\n%s", sb.String())
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := append([][]string{tb.header}, tb.rows...); !reflect.DeepEqual(records, want) {
		t.Errorf("read back %q, want %q", records, want)
	}
}

// A row of the wrong width, or a cell its column's type does not parse, is
// refused when the file is read back, with the row and column named.
func TestValidateCSVRejectsBadRow(t *testing.T) {
	schema := Schema{{Name: "n", Type: ColInt}}
	if err := ValidateCSV(strings.NewReader("n\n12\n"), schema); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCSV(strings.NewReader("n\n12\n12,extra\n"), schema); err == nil ||
		!strings.Contains(err.Error(), "row 3 has 2 columns") {
		t.Errorf("wrong-width row not rejected: %v", err)
	}
	if err := ValidateCSV(strings.NewReader("n\n1.5\n"), schema); err == nil ||
		!strings.Contains(err.Error(), `column "n"`) {
		t.Errorf("non-integer cell not rejected with column name: %v", err)
	}
}

func TestValidateCSVNamesCorruptedColumn(t *testing.T) {
	schema := Schema{
		{Name: "label", Type: ColString},
		{Name: "cycles", Type: ColInt},
	}
	doc := "label,cycles\nok,100\nbad,1x00\n"
	err := ValidateCSV(strings.NewReader(doc), schema)
	if err == nil {
		t.Fatal("corrupted cell accepted")
	}
	for _, want := range []string{`column "cycles"`, "row 3", "1x00"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	// A header mismatch is its own named error.
	err = ValidateCSV(strings.NewReader("label,cyc\n"), schema)
	if err == nil || !strings.Contains(err.Error(), `"cycles"`) {
		t.Errorf("header mismatch not named: %v", err)
	}
}

func TestInferSchema(t *testing.T) {
	header := []string{"name", "count", "mean", "mixed"}
	rows := [][]string{
		{"a", "1", "0.5", "1"},
		{"b", "-2", "3", "x"},
	}
	s := inferSchema(header, rows)
	want := []ColType{ColString, ColInt, ColFloat, ColString}
	for i, c := range s {
		if c.Type != want[i] {
			t.Errorf("column %q inferred %s, want %s", c.Name, c.Type, want[i])
		}
	}
	// The inferred schema must accept the rows it came from.
	for i, row := range rows {
		if err := s.checkRow(i+2, row); err != nil {
			t.Errorf("inferred schema rejects its own row: %v", err)
		}
	}
}

// Table.RenderCSV is the workhorse every CSV caller funnels through: its
// output must re-validate against the table's own inferred schema.
func TestTableRenderCSVSelfValidates(t *testing.T) {
	tb := NewTable("op", "cycles", "ratio")
	tb.Row("load, word", int64(41), 0.25)
	tb.Row(`div "double"`, int64(31), 2.0)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	schema := tb.Schema("", "cyc", "")
	if err := ValidateCSV(strings.NewReader(sb.String()), schema); err != nil {
		t.Fatalf("rendered CSV fails own schema: %v", err)
	}
	if schema[1].Unit != "cyc" {
		t.Errorf("unit not attached: %+v", schema[1])
	}
	if schema[1].Type != ColInt || schema[2].Type != ColFloat {
		t.Errorf("inferred types wrong: %+v", schema)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.Std < 2.13 || s.Std > 2.14 { // sample std of the classic set is ~2.138
		t.Errorf("std = %v, want ~2.138", s.Std)
	}
	if one := Summarize([]float64{3}); one.Std != 0 || one.Mean != 3 {
		t.Errorf("single-value summary wrong: %+v", one)
	}
	if zero := Summarize(nil); zero.N != 0 {
		t.Errorf("empty summary wrong: %+v", zero)
	}
}

// A header or row of one empty cell is written quoted: encoding/csv would
// write it as a blank line, which a reader skips, losing the header or the
// row.
func TestCSVWriterLoneEmptyCell(t *testing.T) {
	tb := NewTable("")
	tb.Row("")
	tb.Row("a")
	tb.Row("")
	var buf strings.Builder
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{""}, {""}, {"a"}, {""}}; !reflect.DeepEqual(records, want) {
		t.Errorf("read back %q from %q, want %q", records, buf.String(), want)
	}
	if err := ValidateCSV(strings.NewReader(buf.String()), tb.Schema()); err != nil {
		t.Error(err)
	}
}
