package server

import (
	"encoding/json"
	"testing"

	"mermaid/internal/analysis"
)

// A job's artifacts are stored with no spare capacity: the result cache
// keeps up to 256 entries, and slack in each would be retained with them.
func TestArtifactsStoredExactSize(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var spec jobSpec
	doc := `{"topology": "mesh:4x4", "seed": 3, "workload": {"Level": "task", "Iterations": 5,
		"Phases": [{"Duration": 500, "Comm": {"Pattern": "exchange", "Bytes": 4096}}]}}`
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, desc, _, err := s.buildJob(&spec)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := s.execute(&job{scope: analysis.NewScope()}, cfg, desc)
	if err != nil {
		t.Fatal(err)
	}
	for name, art := range map[string][]byte{
		"report": entry.Report, "metrics": entry.Metrics, "timeline": entry.Timeline, "bottleneck": entry.Bottleneck,
	} {
		if len(art) == 0 || cap(art) != len(art) {
			t.Errorf("%s: len %d, cap %d; want a non-empty slice with cap == len", name, len(art), cap(art))
		}
	}
}
