package farm

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"mermaid/internal/hostprobe"
)

// TestBatchQueueWaitAndHostTrace checks that batch runs report a queue wait
// (batch start to run start) and that an attached host trace records one
// span per run on the farm's worker tracks.
func TestBatchQueueWaitAndHostTrace(t *testing.T) {
	host := hostprobe.NewTrace()
	p := &Pool{Workers: 2, Host: host}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Name: "job", Run: func(rc *RunContext) (any, error) {
			time.Sleep(time.Millisecond)
			return rc.Index, nil
		}}
	}
	rep := p.Run(jobs)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if rep.Results[i].QueueWait < 0 {
			t.Errorf("run %d: negative queue wait %v", i, rep.Results[i].QueueWait)
		}
	}
	// With 2 workers and 1ms runs, the third wave cannot start immediately.
	var maxWait time.Duration
	for i := range rep.Results {
		if rep.Results[i].QueueWait > maxWait {
			maxWait = rep.Results[i].QueueWait
		}
	}
	if maxWait == 0 {
		t.Error("no run waited despite 6 jobs on 2 workers")
	}
	s := rep.Summary()
	if _, ok := s.Get("queue wait mean"); !ok {
		t.Error("summary missing queue wait mean")
	}
	if v, ok := s.Get("queue wait max"); !ok || v <= 0 {
		t.Errorf("summary queue wait max = %v, %v; want > 0", v, ok)
	}

	if got := host.Events(); got != len(jobs) {
		t.Fatalf("host trace has %d events, want %d", got, len(jobs))
	}
	var buf bytes.Buffer
	if err := host.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("host trace export is not valid JSON")
	}
	if !strings.Contains(buf.String(), "farm.w0") {
		t.Error("host trace missing farm worker track")
	}
}

// TestQueueWait checks the service queue reports submit-to-start wait.
func TestQueueWait(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	record := func(r Result) {
		mu.Lock()
		waits = append(waits, r.QueueWait)
		mu.Unlock()
	}
	q := New(1).StartQueue(8)
	block := Job{Name: "block", OnResult: record, Run: func(rc *RunContext) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return nil, nil
	}}
	quick := Job{Name: "quick", OnResult: record, Run: func(rc *RunContext) (any, error) { return nil, nil }}
	if err := q.Submit(block, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(quick, 2); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if len(waits) != 2 {
		t.Fatalf("got %d results, want 2", len(waits))
	}
	// The second job sat behind the 5ms first one on the single worker.
	if waits[1] < 2*time.Millisecond {
		t.Errorf("queued job waited %v; want at least ~5ms behind the blocker", waits[1])
	}
}
