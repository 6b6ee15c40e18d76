package stochastic

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseDesc feeds arbitrary bytes to ParseDesc — the path a -desc file or
// a job's "workload" document takes. It must never panic, and a description
// it accepts must survive a marshal and re-parse unchanged, so that a stored
// or re-submitted description runs the workload that was parsed. Seeds:
// testdata/fuzz/FuzzParseDesc (the descriptions of the CLI tests,
// docs/TUTORIAL.md and the mermaidd usage example, and the benchmark's
// request descriptions rendered as JSON).
func FuzzParseDesc(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDesc(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted description does not marshal: %v", err)
		}
		again, err := ParseDesc(out)
		if err != nil {
			t.Fatalf("marshalled description does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the description:\nparsed:   %+v\nreparsed: %+v", d, again)
		}
	})
}
