package fault

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mermaid/internal/pearl"
)

// FuzzParseSchedule feeds arbitrary bytes to ParseSchedule — the path a
// -faults file or a job's "faults" document takes. It must never panic, a
// schedule it accepts must survive a marshal and re-parse unchanged, and
// once validated its retransmission delays Delay(1..MaxRetries) must be
// positive and non-decreasing, the last within maxRetransDelay. Seeds:
// testdata/fuzz/FuzzParseSchedule (the schedules of the parser, engine and
// server tests, one combining a link flap, a node crash and noise, an empty
// link list, which once re-parsed as a different schedule, and a backoff
// whose last delay once overflowed).
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
		// Node indices are checked against a machine; any machine will do
		// for the retransmission parameters.
		if s.Validate(math.MaxInt) != nil {
			return
		}
		// Past the exponent cap every delay is the same: the attempts up to
		// one beyond it, and the last, cover them all.
		rt, prev := s.Retrans, pearl.Time(1)
		attempts := []int{}
		for a := 1; a <= min(rt.MaxRetries, maxBackoffShift+2); a++ {
			attempts = append(attempts, a)
		}
		for _, a := range append(attempts, rt.MaxRetries) {
			d := rt.Delay(a)
			if d < prev || d > maxRetransDelay {
				t.Fatalf("%+v: Delay(%d) = %d after %d, want a non-decreasing delay in [1, %d]", rt, a, d, prev, maxRetransDelay)
			}
			prev = d
		}
	})
}
