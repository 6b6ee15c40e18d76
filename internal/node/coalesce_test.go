package node_test

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// runnerTrack matches the timeline track of a CPU runner.
var runnerTrack = regexp.MustCompile(`^node\d+\.cpu\d+$`)

// coalesce is the reference for a CPU runner's timeline track, applied to an
// exported timeline: on every node*.cpu* track, a span with the same name as
// the track's previous span that starts where that one ends is merged into
// it, and the merged span keeps the first piece's place in the export.
func coalesce(t *testing.T, tl string) string {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur int64
			Pid     int
			Tid     int
			Args    struct{ Name string }
		}
	}
	if err := json.Unmarshal([]byte(tl), &doc); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	// The writer puts every event after the first on a line of its own, and
	// a JSON string holds no raw newline.
	const end = "]}\n"
	body, ok := strings.CutSuffix(tl, end)
	pieces := strings.Split(body, ",\n")
	evs := doc.TraceEvents
	if !ok || len(evs) == 0 || len(pieces) != len(evs) {
		t.Fatalf("timeline: %d events on %d lines", len(evs), len(pieces))
	}
	type track struct{ pid, tid int }
	runner := make(map[track]bool)
	last := make(map[track][2]int) // a runner track's last event: its index and kept line
	var kept []string
	for i, ev := range evs {
		tr := track{ev.Pid, ev.Tid}
		if ev.Ph == "M" && ev.Name == "thread_name" && runnerTrack.MatchString(ev.Args.Name) {
			runner[tr] = true
		}
		if ev.Ph != "M" && runner[tr] {
			if l, ok := last[tr]; ok && ev.Ph == "X" && evs[l[0]].Ph == "X" && evs[l[0]].Name == ev.Name && evs[l[0]].Ts+evs[l[0]].Dur == ev.Ts {
				prev := &evs[l[0]]
				old := fmt.Sprintf(`,"dur":%d,`, prev.Dur)
				prev.Dur += ev.Dur
				kept[l[1]] = strings.Replace(kept[l[1]], old, fmt.Sprintf(`,"dur":%d,`, prev.Dur), 1)
				continue
			}
			last[tr] = [2]int{i, len(kept)}
		}
		kept = append(kept, pieces[i])
	}
	return strings.Join(kept, ",\n") + end
}

// coalesced fails the test unless the timeline tl is its own coalesce: every
// CPU runner records one span per run of back-to-back, same-named waits.
func coalesced(t *testing.T, tl string) string {
	t.Helper()
	if c := coalesce(t, tl); c != tl {
		t.Errorf("timeline of %d bytes coalesces to %d", len(tl), len(c))
	}
	return tl
}
