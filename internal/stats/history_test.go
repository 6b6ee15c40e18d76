package stats

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sampleTree is a small report: root metrics, a set with a nested subset.
func sampleTree(sends float64) *Set {
	root := NewSet("machine m")
	root.PutInt("cycles", 100, "cyc")
	nd := root.Sub("node0")
	nd.PutUint("instructions", 7, "")
	nif := nd.Sub("nif0")
	nif.Put("sends", sends, "")
	root.Sub("network mesh(2x2)").Put("avg link utilization", 0.25, "")
	root.PutUint("events", 9, "")
	return root
}

// Flatten names every metric by its path below the root, in report order:
// a set's own metrics before its subsets'.
func TestFlatten(t *testing.T) {
	got := Flatten(sampleTree(3))
	want := []Metric{
		{Name: "cycles", Value: 100, Unit: "cyc"},
		{Name: "events", Value: 9},
		{Name: "node0/instructions", Value: 7},
		{Name: "node0/nif0/sends", Value: 3},
		{Name: "network mesh(2x2)/avg link utilization", Value: 0.25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Flatten =\n%v\nwant\n%v", got, want)
	}
}

// WriteCSV: header and column order are the last sample's paths, a path an
// earlier sample lacks is blank there, names containing CSV metacharacters
// (commas, quotes) are escaped per RFC 4180 rather than corrupting the
// header, and a second export is byte-identical.
func TestWriteCSVDeterministicOrderAndEscaping(t *testing.T) {
	var h History
	early := NewSet("machine m")
	early.Put("plain", 1, "")
	early.Sub(`latency,p99`).Put(`say "hi"`, 2, "")
	h.Add(10, early)
	late := NewSet("machine m")
	late.Put("plain", 4, "")
	late.Put("late", 5, "")
	late.Sub(`latency,p99`).Put(`say "hi"`, 6, "")
	h.Add(20, late)

	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if want := `cycle,plain,late,"latency,p99/say ""hi"""`; lines[0] != want {
		t.Errorf("CSV header = %q, want %q", lines[0], want)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not re-parse: %v", err)
	}
	want := [][]string{
		{"cycle", "plain", "late", `latency,p99/say "hi"`},
		{"10", "1", "", "2"},
		{"20", "4", "5", "6"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("parsed CSV = %q, want %q", rows, want)
	}
	var buf2 bytes.Buffer
	if err := h.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteCSV output differs between calls")
	}
}

// A sample at the instant of the last one replaces it; an empty history
// writes the cycle header alone.
func TestHistoryOneRowPerInstant(t *testing.T) {
	var h History
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil || buf.String() != "cycle\n" {
		t.Errorf("empty history CSV = %q, %v; want the cycle header", buf.String(), err)
	}
	h.Add(10, sampleTree(1))
	h.Add(20, sampleTree(2))
	h.Add(20, sampleTree(3))
	buf.Reset()
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[2] != "20,100,9,7,3,0.25" {
		t.Errorf("CSV rows = %q, want two, the last the replacing sample's", lines[1:])
	}
}

// machineTree is a report of a 64-node machine's shape, 3,011 metrics: each
// node has its own metrics, a CPU's and a network interface's.
func machineTree() *Set {
	root := NewSet("machine m")
	root.Put("cycles", 1e6, "cyc")
	for n := range 64 {
		node := root.Sub(fmt.Sprintf("node%d", n))
		for i := range 16 {
			node.Put(fmt.Sprintf("counter %d", i), float64(i), "")
		}
		cpu := node.Sub("cpu0")
		for i := range 21 {
			cpu.Put(fmt.Sprintf("instructions %d", i), float64(n*i), "")
		}
		nif := node.Sub(fmt.Sprintf("nif%d", n))
		for i := range 10 {
			nif.Put(fmt.Sprintf("sends %d", i), float64(i)/3, "")
		}
	}
	root.Sub("network mesh(8x8)").Put("messages", 4096, "")
	root.Put("events", 1e7, "")
	return root
}

// Once a tree's paths are known, adding another tree of its shape allocates
// the sample's row and its mark, whatever the number of metrics: no path is
// built again.
func TestAllocFreeHistoryAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tree := machineTree()
	if n := len(Flatten(tree)); n < 3000 {
		t.Fatalf("the tree has %d metrics, want about 3,000", n)
	}
	var h History
	at := int64(0)
	h.Add(at, tree)
	if allocs := testing.AllocsPerRun(1000, func() {
		at += 10
		h.Add(at, tree)
	}); allocs > 2 {
		t.Errorf("History.Add allocates %v times per sample of %d metrics, want at most 2 (its row)", allocs, len(Flatten(tree)))
	}
}
