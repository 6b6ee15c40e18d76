package farm

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The queue runs every submitted job exactly once, delivers each result
// through the job's own hook and no pool-level one, and preserves the
// submitted seed (service jobs are cache-addressed by seed, so the queue
// must not derive its own).
func TestQueueRunsSubmittedJobs(t *testing.T) {
	var jobHook, poolHook atomic.Uint64
	var mu sync.Mutex
	seeds := map[uint64]bool{}

	p := New(4)
	p.OnResult = func(Result) { poolHook.Add(1) }
	q := p.StartQueue(64)
	const n = 32
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		err := q.Submit(Job{
			Name: "t",
			Run: func(rc *RunContext) (any, error) {
				return rc.Seed, nil
			},
			OnResult: func(res Result) {
				jobHook.Add(1)
				mu.Lock()
				seeds[res.Value.(uint64)] = true
				mu.Unlock()
				if res.Seed != res.Value.(uint64) {
					t.Errorf("run saw seed %d, result says %d", res.Value, res.Seed)
				}
			},
		}, seed)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	q.Close()
	if jobHook.Load() != n || poolHook.Load() != 0 {
		t.Fatalf("job hook ran %d times, pool hook %d; want %d and 0", jobHook.Load(), poolHook.Load(), n)
	}
	for i := 0; i < n; i++ {
		if !seeds[uint64(1000+i)] {
			t.Errorf("seed %d never ran", 1000+i)
		}
	}
}

// A full queue refuses immediately with errQueueFull — the server's
// back-pressure signal — and a closed queue with errQueueClosed.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	p := New(1)
	q := p.StartQueue(1)
	block := Job{Name: "block", Run: func(*RunContext) (any, error) {
		<-release
		return nil, nil
	}}
	// First submission occupies the worker (eventually), second the queue
	// slot; submit until both are full, then expect refusal.
	if err := q.Submit(block, 0); err != nil {
		t.Fatal(err)
	}
	// The worker may not have dequeued the first job yet, so full means
	// two accepted submissions in the worst case — the third must refuse.
	full := 0
	for i := 0; i < 3; i++ {
		if err := q.Submit(block, uint64(i)); errors.Is(err, errQueueFull) {
			full++
		}
	}
	if full == 0 {
		t.Error("queue of depth 1 accepted 4 concurrent submissions")
	}
	close(release)
	q.Close()
	if err := q.Submit(block, 9); !errors.Is(err, errQueueClosed) {
		t.Errorf("submit after close = %v, want errQueueClosed", err)
	}
	q.Close() // idempotent
}

// A panicking queued job is isolated into its result's Err, like the batch
// path: one bad simulation must not take down the serving process.
func TestQueuePanicIsolation(t *testing.T) {
	var got error
	done := make(chan struct{})
	p := New(2)
	q := p.StartQueue(4)
	err := q.Submit(Job{
		Name: "boom",
		Run:  func(*RunContext) (any, error) { panic("kaboom") },
		OnResult: func(res Result) {
			got = res.Err
			close(done)
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	q.Close()
	if got == nil || !strings.Contains(got.Error(), "panicked") {
		t.Fatalf("panic was not captured in the result: %v", got)
	}
}

// Job-scoped hooks fire concurrently from many workers; every job keeps its
// own observer. Run under -race in CI's server job.
func TestJobScopedHooksConcurrent(t *testing.T) {
	const jobs = 8
	var counts [jobs]atomic.Uint64
	p := New(4)
	p.Repeats = 5
	batch := make([]Job, jobs)
	for i := range batch {
		i := i
		batch[i] = Job{
			Name:     "j",
			Run:      func(rc *RunContext) (any, error) { return nil, nil },
			OnResult: func(Result) { counts[i].Add(1) },
		}
	}
	rep := p.Run(batch)
	if err := rep.Errs(); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 5 {
			t.Errorf("job %d hook ran %d times, want 5", i, got)
		}
	}
}
