// Package farm is the parallel simulation engine of the workbench: it runs
// independent simulations — experiment runners, sweep points, seed
// replications — concurrently on host workers. Each pearl.Kernel is a
// deterministic single-threaded engine, so independent runs parallelise
// trivially across host cores; the farm exists to exploit that for the
// many-variants studies the workbench is designed for (§2: cache sweeps,
// network sweeps, topology studies).
//
// The farm never influences simulated results: jobs receive per-run derived
// seeds that depend only on their submission position, results are collected
// in submission order, and a panicking run is isolated into an error instead
// of taking down the batch. Parallelism changes wall time, nothing else.
package farm

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mermaid/internal/hostprobe"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// Job is one independent simulation to execute.
type Job struct {
	// Name labels the run in reports and error messages.
	Name string
	// Run executes the simulation and returns its payload. It must be
	// self-contained: build the machine, run it, extract what the caller
	// needs. It must not share mutable state with other jobs.
	Run func(rc *RunContext) (any, error)
	// OnResult, when non-nil, receives this job's completed runs — the
	// job-scoped counterpart of Pool.OnResult, so different jobs sharing one
	// pool or queue can feed different observers (the simulation server
	// gives every HTTP job its own monitor scope). It is called from worker
	// goroutines — under Run, before the pool-level hook — and must be safe
	// for concurrent use; it observes results, it cannot change them.
	OnResult func(Result)
}

// RunContext identifies one run within a batch and collects its simulated
// outcome for the batch report.
type RunContext struct {
	// Index is the job's position in the submission order.
	Index int
	// Replica is the replication number of this run (0 <= Replica <
	// Pool.Repeats).
	Replica int
	// Seed is the run's private seed, derived from the pool seed and the
	// (Index, Replica) pair (pearl.RNG.Derive): distinct per run,
	// reproducible across batches, and independent of both the worker count
	// and the Repeats setting — raising Repeats adds new seeds without
	// changing the ones existing runs already used.
	Seed uint64

	cycles pearl.Time
	events uint64
}

// ObserveSim records a simulation's virtual outcome (simulated cycles and
// kernel events) so the batch report can aggregate throughput. Jobs may call
// it multiple times; the values accumulate.
func (rc *RunContext) ObserveSim(cycles pearl.Time, events uint64) {
	rc.cycles += cycles
	rc.events += events
}

// Result is the structured outcome of one run.
type Result struct {
	// Index and Replica locate the run in the batch (submission order).
	Index   int
	Replica int
	// Name is the job's label.
	Name string
	// Seed is the derived seed the run executed with (reproduce a failing
	// replication in isolation by seeding with it).
	Seed uint64
	// Value is the payload returned by the job (nil on failure).
	Value any
	// Err is the job's error; a panic inside the run is captured here with
	// its stack instead of crashing the process.
	Err error
	// Wall is the host time this run took.
	Wall time.Duration
	// QueueWait is how long the run sat waiting for a worker: from batch
	// start (Pool.Run) or submission (Queue.Submit) until execution began.
	QueueWait time.Duration
	// Cycles and Events are the simulated outcome observed via ObserveSim.
	Cycles pearl.Time
	Events uint64
}

// Pool executes batches of jobs on a bounded set of host workers.
type Pool struct {
	// Workers is the maximum number of runs in flight; values below 1 mean
	// sequential execution. Worker count never affects results, only wall
	// time.
	Workers int
	// Repeats replicates every job this many times (values below 1 mean
	// once). Replica r of job i runs with the derived seed for position
	// (i, r), so replications are independent but reproducible.
	Repeats int
	// Seed is the base seed per-run seeds are derived from.
	Seed uint64
	// OnResult, when non-nil, is invoked once per completed run of Run with
	// its Result — a progress hook for live monitoring. It is called from
	// worker goroutines and must be safe for concurrent use; it observes
	// results, it cannot change them. A Queue does not call it.
	OnResult func(Result)
	// Host, when non-nil, receives one wall-clock span per run of Run on a
	// "farm.wN" track per worker, named after the job — the farm's schedule
	// in a host trace (internal/hostprobe). Host telemetry observes runs; it
	// never affects them. A Queue records no host trace.
	Host *hostprobe.Trace
}

// New returns a pool with the given worker count.
func New(workers int) *Pool { return &Pool{Workers: workers} }

// Run executes every job (times Repeats) and returns the batch report.
// Results are in submission order — job-major, replica-minor — regardless of
// completion order.
func (p *Pool) Run(jobs []Job) *Report {
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	repeats := p.Repeats
	if repeats < 1 {
		repeats = 1
	}
	n := len(jobs) * repeats
	rep := &Report{Workers: workers, Repeats: repeats, Results: make([]Result, n)}
	if n == 0 {
		return rep
	}
	if workers > n {
		workers = n
	}

	base := pearl.NewRNG(p.Seed)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var track probe.Track
			if p.Host != nil {
				track = p.Host.Track(fmt.Sprintf("farm.w%d", w))
			}
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				job := jobs[i/repeats]
				index, replica := i/repeats, i%repeats
				rc := &RunContext{
					Index:   index,
					Replica: replica,
					// Derive from the packed (Index, Replica) pair, not the
					// linear slot: job i's replica-r seed is then invariant
					// under the pool's Repeats setting, so adding replications
					// never perturbs the runs an experiment already had.
					Seed: base.Derive(uint64(index)<<32 | uint64(replica)).Uint64(),
				}
				res := Result{Index: rc.Index, Replica: rc.Replica, Name: job.Name, Seed: rc.Seed}
				t0 := time.Now()
				res.QueueWait = t0.Sub(start)
				res.Value, res.Err = runIsolated(job, rc)
				res.Wall = time.Since(t0)
				res.Cycles, res.Events = rc.cycles, rc.events
				if p.Host != nil {
					p.Host.SpanSince(track, job.Name, t0)
				}
				rep.Results[i] = res
				if job.OnResult != nil {
					job.OnResult(res)
				}
				if p.OnResult != nil {
					p.OnResult(res)
				}
			}
		}(w)
	}
	wg.Wait()

	rep.Wall = time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if memAfter.TotalAlloc > memBefore.TotalAlloc {
		rep.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	}
	return rep
}

// runIsolated executes one run, converting a panic into an error so one bad
// simulation cannot take down a batch of thousands.
func runIsolated(job Job, rc *RunContext) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: run %q (job %d, replica %d) panicked: %v\n%s",
				job.Name, rc.Index, rc.Replica, r, debug.Stack())
		}
	}()
	return job.Run(rc)
}

// Report is the outcome of one batch.
type Report struct {
	// Results holds one entry per run, in submission order.
	Results []Result
	// Wall is the host time for the whole batch.
	Wall time.Duration
	// Workers and Repeats echo the pool settings that produced the batch.
	Workers int
	Repeats int
	// AllocBytes estimates the host memory churn of the batch: the delta of
	// runtime.MemStats.TotalAlloc across Run. The counter is process-global,
	// so anything else allocating while the batch runs — a live monitor's
	// HTTP handlers, other batches, the caller's own goroutines — is
	// attributed to this batch too. Treat it as an order-of-magnitude
	// indicator for sizing studies, never as a per-run measurement; Go offers
	// no per-goroutine allocation scope to do better.
	AllocBytes uint64
}

// Err returns the first failure in submission order, or nil.
func (r *Report) Err() error {
	for i := range r.Results {
		if r.Results[i].Err != nil {
			return r.Results[i].Err
		}
	}
	return nil
}

// Errs joins every failure in submission order, or returns nil.
func (r *Report) Errs() error {
	var errs []error
	for i := range r.Results {
		if r.Results[i].Err != nil {
			errs = append(errs, r.Results[i].Err)
		}
	}
	return errors.Join(errs...)
}

// Values returns the run payloads in submission order. Call only after
// checking Err: failed runs contribute nil.
func (r *Report) Values() []any {
	out := make([]any, len(r.Results))
	for i := range r.Results {
		out[i] = r.Results[i].Value
	}
	return out
}

// Summary aggregates the batch into a metric set: run counts, simulated
// volume, host throughput, and the parallel speedup actually achieved
// (sum of per-run wall time over batch wall time).
func (r *Report) Summary() *stats.Set {
	s := stats.NewSet("farm")
	var cycles pearl.Time
	var events uint64
	var sumWall, sumWait, maxWait time.Duration
	failures := 0
	for i := range r.Results {
		res := &r.Results[i]
		cycles += res.Cycles
		events += res.Events
		sumWall += res.Wall
		sumWait += res.QueueWait
		if res.QueueWait > maxWait {
			maxWait = res.QueueWait
		}
		if res.Err != nil {
			failures++
		}
	}
	s.PutInt("runs", int64(len(r.Results)), "")
	s.PutInt("workers", int64(r.Workers), "")
	s.PutInt("failures", int64(failures), "")
	s.PutInt("sim cycles", int64(cycles), "cyc")
	s.PutUint("kernel events", events, "")
	s.Put("wall", float64(r.Wall.Microseconds())/1000, "ms")
	if secs := r.Wall.Seconds(); secs > 0 {
		s.Put("runs/s", float64(len(r.Results))/secs, "")
		s.Put("sim cycles/s", float64(cycles)/secs, "")
		s.Put("speedup", sumWall.Seconds()/secs, "x")
	}
	if n := len(r.Results); n > 0 {
		s.Put("queue wait mean", float64(sumWait.Microseconds())/1000/float64(n), "ms")
		s.Put("queue wait max", float64(maxWait.Microseconds())/1000, "ms")
		// Process-global estimate — see Report.AllocBytes for the caveats.
		s.Put("host alloc/run", float64(r.AllocBytes)/1024/float64(n), "KiB")
	}
	return s
}

// Table returns the per-run breakdown in submission order.
func (r *Report) Table() *stats.Table {
	tb := stats.NewTable("run", "replica", "seed", "sim cycles", "events", "wall ms", "status")
	for i := range r.Results {
		res := &r.Results[i]
		status := "ok"
		if res.Err != nil {
			status = "FAILED: " + res.Err.Error()
		}
		tb.Row(res.Name, res.Replica, fmt.Sprintf("%#x", res.Seed),
			int64(res.Cycles), int64(res.Events),
			float64(res.Wall.Microseconds())/1000, status)
	}
	return tb
}
