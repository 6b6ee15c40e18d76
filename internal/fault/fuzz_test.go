package fault

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSchedule feeds arbitrary bytes to ParseSchedule — the path a
// -faults file or a job's "faults" document takes. It must never panic, and a
// schedule it accepts must survive a marshal and re-parse unchanged. Seeds:
// testdata/fuzz/FuzzParseSchedule (the schedules of the parser, engine and
// server tests and of examples/faulty, and an empty link list, which once
// re-parsed as a different schedule).
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted schedule does not marshal: %v", err)
		}
		again, err := ParseSchedule(out)
		if err != nil {
			t.Fatalf("marshalled schedule does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the schedule:\nparsed:   %+v\nreparsed: %+v", s, again)
		}
	})
}
