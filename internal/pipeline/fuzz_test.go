package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzParseGrid holds the grid parser to its contract: an arbitrary document
// never panics it, and a grid it accepts validates again, as parsed and
// after a JSON round trip, which encodes it as before (an empty sweep map
// and an absent one are the same grid).
func FuzzParseGrid(f *testing.F) {
	smoke, err := os.ReadFile("../../testdata/pipeline/smoke-grid.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(testGrid))
	f.Add([]byte(`{"name":"g","experiments":[{"name":"imbalance","grid":{"cv":"0,0.3"}}]}`))
	f.Add([]byte(`{"name":"g","repeats":-1,"experiments":[{"name":"validity"}]}`))
	f.Add([]byte(`{"name":"g","experiments":[{"name":"imbalance","grid":{"cv":[]}}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		g, err := ParseGrid(doc)
		if err != nil {
			return
		}
		if err := g.validate(); err != nil {
			t.Fatalf("accepted grid fails validation: %v\n%s", err, doc)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseGrid(data)
		if err != nil {
			t.Fatalf("accepted grid, re-encoded, is refused: %v\n%s", err, data)
		}
		if data2, err := json.Marshal(again); err != nil || !bytes.Equal(data, data2) {
			t.Fatalf("grid changed in a JSON round trip (%v):\n%s\n%s", err, data, data2)
		}
	})
}
