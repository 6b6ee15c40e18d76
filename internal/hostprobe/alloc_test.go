package hostprobe

import (
	"testing"
	"time"
)

// The disabled host-telemetry path must be free: components hold a possibly
// nil *Trace and call it unconditionally, so every nil-receiver method may
// not allocate. Same discipline as internal/probe's nil Timeline/Registry.

func TestAllocFreeNilTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var tr *Trace
	track := tr.Track("x")
	now := time.Now()
	if got := testing.AllocsPerRun(200, func() {
		tr.Span(track, "s", now, now)
		_ = tr.Events()
	}); got != 0 {
		t.Errorf("nil trace allocates %v times per op; want 0", got)
	}
}
