package farm

import (
	"errors"
	"sync"
	"time"
)

// Queue errors.
var (
	// errQueueFull reports a Submit that found the bounded queue at
	// capacity; the caller sheds the load (the simulation server answers
	// 503) instead of blocking.
	errQueueFull = errors.New("farm: queue full")
	// errQueueClosed reports a Submit after Close.
	errQueueClosed = errors.New("farm: queue closed")
)

// Queue is the service front of a Pool: a bounded submission queue feeding a
// fixed set of workers that run until Close. Batch execution (Pool.Run)
// fits invocations that know all their jobs up front; a long-running
// service — the simulation server — receives jobs one at a time and wants
// back-pressure instead of an unbounded backlog, so Queue accepts or
// refuses each job immediately and delivers outcomes through the job-scoped
// OnResult hook. There is no batch report.
//
// Unlike the batch path, every submission carries its own explicit seed:
// service jobs are addressed by (config, workload, seed) for the result
// cache, so the seed must come from the request, not from a submission
// position.
type Queue struct {
	jobs chan queuedJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	next   int
}

type queuedJob struct {
	job  Job
	seed uint64
	idx  int
	// submitted is when Submit accepted the job; the gap to run start is the
	// job's reported QueueWait.
	submitted time.Time
}

// StartQueue starts the pool's workers on a bounded queue holding at most
// depth not-yet-started jobs (values below 1 mean 1). Of the pool's fields
// only Workers applies, read once here: queued jobs carry their own seed and
// their own OnResult hook.
func (p *Pool) StartQueue(depth int) *Queue {
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	q := &Queue{jobs: make(chan queuedJob, depth)}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for qj := range q.jobs {
				q.run(qj)
			}
		}()
	}
	return q
}

// Submit enqueues one job to run with the given seed. It never blocks:
// a full queue returns errQueueFull, a closed queue errQueueClosed.
func (q *Queue) Submit(job Job, seed uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	select {
	case q.jobs <- queuedJob{job: job, seed: seed, idx: q.next, submitted: time.Now()}:
		q.next++
		return nil
	default:
		return errQueueFull
	}
}

// Close stops accepting submissions, lets already-queued jobs run, and
// waits for every in-flight run to finish. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.jobs)
	q.wg.Wait()
}

func (q *Queue) run(qj queuedJob) {
	rc := &RunContext{Index: qj.idx, Seed: qj.seed}
	res := Result{Index: qj.idx, Name: qj.job.Name, Seed: qj.seed}
	t0 := time.Now()
	res.QueueWait = t0.Sub(qj.submitted)
	res.Value, res.Err = runIsolated(qj.job, rc)
	res.Wall = time.Since(t0)
	res.Cycles, res.Events = rc.cycles, rc.events
	if qj.job.OnResult != nil {
		qj.job.OnResult(res)
	}
}
