package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A finished job stores exactly its report, with no spare capacity: the
// result cache keeps up to 256 entries, and slack in each would be retained
// with them. The metrics, the timeline and the bottleneck analysis are
// re-derived per GET and never stored.
func TestArtifactsStoredExactSize(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	doc := `{"topology": "mesh:4x4", "seed": 3, "workload": {"Level": "task", "Iterations": 5,
		"Phases": [{"Duration": 500, "Comm": {"Pattern": "exchange", "Bytes": 4096}}]}}`
	_, key, err := ResolveJob([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(doc)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d\n%s", rec.Code, rec.Body)
	}
	s.Close() // runs the job and stores its entry

	entry, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("finished job left no cache entry")
	}
	if art := entry.Report; len(art) == 0 || cap(art) != len(art) {
		t.Errorf("report: len %d, cap %d; want a non-empty slice with cap == len", len(art), cap(art))
	}
	if entry.Metrics != nil || entry.Timeline != nil || entry.Bottleneck != nil {
		t.Errorf("entry stores metrics (%d B), a timeline (%d B) or a bottleneck analysis (%d B)",
			len(entry.Metrics), len(entry.Timeline), len(entry.Bottleneck))
	}
	if got, want := s.cache.Bytes(), uint64(len(entry.Report)); got != want {
		t.Errorf("cache holds %d bytes, want the report's %d", got, want)
	}
}
