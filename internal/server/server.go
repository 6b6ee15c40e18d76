// Package server turns the workbench into a service: a long-running HTTP
// front end through which many users explore many machine variants against
// shared machinery — the paper's "environment" claim, made multi-tenant.
//
// POST /jobs accepts a core.RunSpec in its JSON form — a machine (a preset,
// a schema-v2 configuration or a compact topology spec, with an optional
// seed and fault schedule) and a stochastic workload description — and
// answers with a job id. A bounded queue feeds
// a shared farm of simulation workers; every job owns an analysis.Scope, so
// GET /jobs/{id}/progress and /jobs/{id}/metrics stream per-job live state —
// the run's report as the last sampling tick built it — while concurrent
// jobs stay independent. A finished job keeps one artifact, served from
// /jobs/{id}/report: the text report.
//
// Because the workbench is deterministic (byte-identical reports at any
// worker or shard count), finished artifacts are cached content-addressed
// by (config hash, workload hash, seed): resubmitting an identical job is
// answered from internal/resultcache without running a simulation, and the
// response bytes equal the original run's. Cache hits and misses are
// visible on the server-level GET /metrics.
//
// The same determinism lets every other artifact go unstored. A job runs
// without a timeline; GET /jobs/{id}/timeline, /bottleneck and, once the job
// is done, /metrics re-run its simulation on the shared queue, with the
// timeline attached when it is the one asked for, and stream the artifact
// from that run. Each such GET costs one simulation and retains nothing; the
// bytes equal the first run's, on a cache hit too. The server's /metrics
// counts the re-runs (artifacts.rederived).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mermaid/internal/analysis"
	"mermaid/internal/core"
	"mermaid/internal/farm"
	"mermaid/internal/hostprobe"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/resultcache"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
)

// Config parameterises the service.
type Config struct {
	// Workers is the number of simulations run concurrently (values below 1
	// mean runtime.NumCPU()).
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker; a
	// submission beyond it is refused with 503 (values below 1 mean 64).
	QueueDepth int
	// CacheEntries bounds the result cache (values below 1 mean 256).
	CacheEntries int
	// SampleEvery is the virtual-time interval of each job's live metric
	// sampling (values below 1 mean 10000 cycles).
	SampleEvery pearl.Time
	// Log receives the service's structured operational log: one line per
	// job-lifecycle event (accept, start, finish, fail, reject), each
	// carrying the job id for correlation. Nil discards the log. Logging
	// observes jobs on the host side only; simulation results are identical
	// with and without it.
	Log *slog.Logger
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: profiling endpoints expose internals
	// and cost memory, so operators opt in.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 10000
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the simulation service. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg     Config
	log     *slog.Logger
	queue   *farm.Queue
	cache   *resultcache.Cache
	mux     *http.ServeMux
	started time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	queued    atomic.Int64
	running   atomic.Int64
	rederived atomic.Uint64 // simulations run to re-derive a done job's artifacts
}

// job is the server-side state of one submission. The immutable fields are
// set at creation; everything behind mu changes as the job advances.
type job struct {
	id    string
	name  string
	key   resultcache.Key
	scope *analysis.Scope
	// cfg and run are what the job simulates, kept on a cache hit as on a
	// miss: /timeline, /bottleneck and a done job's /metrics run them again.
	cfg     machine.Config
	run     func(*machine.Machine) (*machine.Result, error)
	created time.Time
	// host is the job's wall-clock trace: cache lookup, queue wait and run
	// spans, served at /jobs/{id}/hosttrace. Host-side only — it observes
	// the job's schedule, never the simulation.
	host    *hostprobe.Trace
	hostTrk probe.Track

	mu        sync.Mutex
	state     string // "queued", "running", "done", "failed"
	cached    bool
	errMsg    string
	entry     resultcache.Entry
	queueWait time.Duration
	wall      time.Duration
}

// New starts the service: a farm queue with cfg.Workers workers and a
// result cache. No listener is opened — mount Handler on one.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Log,
		cache:   resultcache.New(cfg.CacheEntries),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.queue = farm.New(cfg.Workers).StartQueue(cfg.QueueDepth)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleRederived("metrics"))
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleRederived("timeline"))
	mux.HandleFunc("GET /jobs/{id}/bottleneck", s.handleRederived("bottleneck"))
	mux.HandleFunc("GET /jobs/{id}/hosttrace", s.handleHostTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting work and waits for queued and in-flight
// simulations to finish.
func (s *Server) Close() { s.queue.Close() }

// Drain closes the queue and waits for queued and in-flight simulations up
// to the context's deadline. Of the jobs still pending when the drain
// began, it returns how many finished (drained) and how many were still
// unfinished when it gave up (aborted; the queue keeps finishing them in
// the background, but the caller is exiting). Logs one summary line either
// way.
func (s *Server) Drain(ctx context.Context) (drained, aborted int) {
	pending := int(s.queued.Load() + s.running.Load())
	done := make(chan struct{})
	go func() {
		s.queue.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	aborted = int(s.queued.Load() + s.running.Load())
	if drained = pending - aborted; drained < 0 {
		drained = 0
	}
	s.log.Info("drain complete", "drained", drained, "aborted", aborted)
	return drained, aborted
}

// Cache returns the result cache (counters for tests and ops tooling).
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// maxJobStreams caps the trace streams (processors) of a job's machine. Every
// job runs with the bottleneck collector attached, and a GET of its timeline
// re-runs it with the timeline attached too; together they give every link
// virtual channel a named track and a collector resource — about 3.4 KB of
// heap per node of a 3-D torus before the first event, on 4,096 and 16,384
// nodes alike (against 0.6 KB unobserved) — so the cap is the largest
// machine the benchmark runs, 16,384 nodes, not the 2^30-node bound of the
// topology parser.
const maxJobStreams = 16384

// maxJobPorts caps the ports (nodes × topology degree) of a job's machine.
// The network allocates two virtual-channel records per port before the
// first event, and the collector its per-link counters besides, so the
// stream cap alone lets a star or fully connected machine of 16,384 nodes
// through with 268 M ports — some 17 GB of channel records, and an
// out-of-memory error is fatal, not a panic the farm can recover. The cap
// admits the 3-D torus of 16,384 nodes the benchmark runs (98,304 ports).
const maxJobPorts = 6 * maxJobStreams

// admit resolves a POST /jobs document into a job and applies the service's
// policy on top of the RunSpec's own checks: the stream and port caps, no
// shards, a stochastic workload, and the cache key that addresses the
// job's outcome.
func admit(spec core.RunSpec) (*job, error) {
	cfg, run, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	cpus := 1
	if cfg.Mode == machine.Detailed {
		cpus = cfg.Node.Hierarchy.CPUs
	}
	// cfg.Nodes is the topology's size: validation sizes the topology. Each
	// factor is bounded first, so the product cannot overflow.
	if cfg.Nodes > maxJobStreams || cpus > maxJobStreams || cfg.Nodes*cpus > maxJobStreams {
		return nil, fmt.Errorf("machine has %d nodes of %d CPUs; a job may have at most %d streams", cfg.Nodes, cpus, maxJobStreams)
	}
	streams := cfg.Nodes * cpus
	if cfg.Shards > 0 {
		// Per-job live monitoring and the bottleneck collector observe one
		// kernel; the parallel engine is for offline runs.
		return nil, fmt.Errorf("shards are not supported by the server; submit with shards 0")
	}
	// Validation has matched the topology to cfg.Nodes, so the product
	// cannot overflow.
	tp, err := topology.New(cfg.Network.Topology)
	if err != nil {
		return nil, err
	}
	if ports := tp.Nodes() * tp.Degree(); ports > maxJobPorts {
		return nil, fmt.Errorf("machine %s has %d ports (%d nodes of degree %d); a job may have at most %d", tp.Name(), ports, tp.Nodes(), tp.Degree(), maxJobPorts)
	}
	if len(spec.Workload) == 0 {
		return nil, fmt.Errorf("a workload description is required")
	}
	cfgHash, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	// Key the outcome by the effective description: a document that omits
	// a default and one that writes it out are one run, and so are one that
	// omits Nodes and one that gives the machine's stream count, to which
	// Resolve sizes it. Resolve has parsed it already, so it parses.
	desc, err := stochastic.ParseDesc(spec.Workload)
	if err != nil {
		return nil, err
	}
	if desc.Nodes == 0 {
		desc.Nodes = streams
	}
	effective, err := json.Marshal(desc)
	if err != nil {
		return nil, err
	}
	wlHash, err := machine.CanonicalJSONHash(effective)
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = cfg.Name
	}
	return &job{
		name: name,
		key:  resultcache.Key{Config: cfgHash, Workload: wlHash, Seed: cfg.Seed},
		cfg:  cfg,
		run:  run,
	}, nil
}

// simRun is one simulation of a job: the workbench that built the machine,
// the machine and its result.
type simRun struct {
	wb  *core.Workbench
	m   *machine.Machine
	res *machine.Result
}

// simulate runs a job's simulation, with the timeline attached or not, and
// the bottleneck collector either way. A live sampler hands the sample
// consumers, if any, each tick and the run's report at the end; with none
// no sampler is armed. Its ticks change nothing but the event count, which
// neither the timeline nor the bottleneck analysis carries, so every run of
// a job derives the same artifacts.
func (s *Server) simulate(j *job, timeline bool, sample ...func(analysis.Tick)) (simRun, error) {
	opts := []core.Option{core.WithAnalysis()}
	if timeline {
		opts = append(opts, core.WithProbe(probe.New(probe.Config{Timeline: true})))
	}
	wb, err := core.New(j.cfg, opts...)
	if err != nil {
		return simRun{}, err
	}
	m, err := wb.Build()
	if err != nil {
		return simRun{}, err
	}
	finish, err := m.StartSampler(s.cfg.SampleEvery, sample...)
	if err != nil {
		return simRun{}, err
	}
	res, err := j.run(m)
	if err != nil {
		return simRun{}, err
	}
	finish(res)
	return simRun{wb: wb, m: m, res: res}, nil
}

// execute runs one job's simulation on a worker goroutine, without a
// timeline, and renders what the job keeps: the report, stored with no spare
// capacity, since the result cache holds its entries for as long as they are
// hot.
func (s *Server) execute(j *job) (resultcache.Entry, error) {
	run, err := s.simulate(j, false, j.scope.Sample)
	if err != nil {
		return resultcache.Entry{}, err
	}
	var report bytes.Buffer
	if err := run.wb.Report(&report, run.res); err != nil {
		return resultcache.Entry{}, err
	}
	return resultcache.Entry{
		Report: exactCopy(report.Bytes()),
		Cycles: int64(run.res.Cycles),
		Events: run.res.Events,
	}, nil
}

// exactCopy returns a copy of b whose capacity is its length.
func exactCopy(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// maxJobBytes caps a POST /jobs document. Job documents are a few hundred
// bytes to a few KiB, even with a full machine configuration inline.
const maxJobBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := core.DecodeRunSpec(http.MaxBytesReader(w, r.Body, maxJobBytes))
	if err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job document exceeds %d bytes", maxJobBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "parsing job: %v", err)
		return
	}
	j, err := admit(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j.scope = analysis.NewScope()
	j.created = time.Now()
	j.host = hostprobe.NewTrace()
	j.hostTrk = j.host.Track("job")
	j.scope.SetRuns(1)

	lookupStart := time.Now()
	entry, hit := s.cache.Get(j.key)
	j.host.SpanSince(j.hostTrk, "cache.lookup", lookupStart)
	if hit {
		// Determinism makes the stored artifacts byte-identical to what a
		// fresh run would produce — answer without touching a kernel.
		// /timeline and /bottleneck re-run the job's own cfg and run.
		j.state = "done"
		j.cached = true
		j.entry = entry
		j.scope.ObserveRun(pearl.Time(entry.Cycles), entry.Events)
		j.scope.RunDone()
		j.scope.Finish()
		s.register(j)
		s.log.Info("job accepted", "job", j.id, "name", j.name, "key", j.key.ID(), "cache", "hit")
		s.writeJobJSON(w, http.StatusOK, j)
		return
	}

	// The id must exist before the job can reach a worker: the worker logs
	// and publishes state under it, and a fast run could otherwise finish
	// before registration. A rejected submission is unpublished again.
	j.state = "queued"
	s.register(j)
	fj := farm.Job{
		Name: j.name,
		Run: func(*farm.RunContext) (any, error) {
			s.queued.Add(-1)
			s.running.Add(1)
			runStart := time.Now()
			j.host.Span(j.hostTrk, "queued", j.created, runStart)
			j.mu.Lock()
			j.state = "running"
			j.queueWait = runStart.Sub(j.created)
			j.mu.Unlock()
			s.log.Info("job started", "job", j.id, "queue_wait_ms", durMS(runStart.Sub(j.created)))
			v, err := s.execute(j)
			j.host.SpanSince(j.hostTrk, "run", runStart)
			return v, err
		},
		// The job-scoped hook finalises this job only; other jobs sharing
		// the queue deliver to their own hooks.
		OnResult: func(res farm.Result) {
			s.running.Add(-1)
			j.scope.RunDone()
			j.scope.Finish()
			if res.Err != nil {
				j.mu.Lock()
				j.wall = res.Wall
				j.state = "failed"
				j.errMsg = res.Err.Error()
				j.mu.Unlock()
				s.failed.Add(1)
				s.log.Error("job failed", "job", j.id, "wall_ms", durMS(res.Wall), "err", res.Err)
				return
			}
			// Store, then publish: a client may resubmit the same document
			// the instant it reads "done", and that submission must hit.
			entry := res.Value.(resultcache.Entry)
			storeStart := time.Now()
			s.cache.Put(j.key, entry)
			j.host.SpanSince(j.hostTrk, "cache.store", storeStart)
			j.mu.Lock()
			j.wall = res.Wall
			j.state = "done"
			j.entry = entry
			j.mu.Unlock()
			// A done job's /metrics re-derives; a failed one's keeps the
			// scope's tree, and so does this one until it reads "done".
			j.scope.DropReport()
			s.completed.Add(1)
			s.log.Info("job finished", "job", j.id,
				"wall_ms", durMS(res.Wall), "queue_wait_ms", durMS(res.QueueWait),
				"cycles", entry.Cycles, "events", entry.Events)
		},
	}
	if err := s.queue.Submit(fj, j.cfg.Seed); err != nil {
		s.unregister(j)
		s.rejected.Add(1)
		s.log.Warn("job rejected", "name", j.name, "err", err)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.queued.Add(1)
	s.log.Info("job accepted", "job", j.id, "name", j.name, "key", j.key.ID(), "cache", "miss")
	s.writeJobJSON(w, http.StatusAccepted, j)
}

// register assigns the job its id and publishes it. Submission order is the
// listing order; ids count up and are never reused, even when a rejected
// submission is unregistered again.
func (s *Server) register(j *job) {
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.submitted.Add(1)
}

// unregister withdraws a job whose submission the queue refused.
func (s *Server) unregister(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.submitted.Add(^uint64(0))
}

// durMS renders a duration as fractional milliseconds for log and status
// output.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) lookup(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

// jobJSON is the wire format of one job's status. QueueWaitMS and WallMS
// are host-side wall-clock observations (submission-to-start and run time);
// they vary run to run while every simulated field is deterministic.
type jobJSON struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Cached      bool    `json:"cached"`
	Key         string  `json:"key"`
	Error       string  `json:"error,omitempty"`
	Cycles      int64   `json:"cycles,omitempty"`
	Events      uint64  `json:"events,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	WallMS      float64 `json:"wall_ms"`
}

func (j *job) json() jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := jobJSON{
		ID:          j.id,
		Name:        j.name,
		State:       j.state,
		Cached:      j.cached,
		Key:         j.key.ID(),
		Error:       j.errMsg,
		QueueWaitMS: durMS(j.queueWait),
		WallMS:      durMS(j.wall),
	}
	if j.state == "done" {
		out.Cycles = j.entry.Cycles
		out.Events = j.entry.Events
	}
	return out
}

func (s *Server) writeJobJSON(w http.ResponseWriter, code int, j *job) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(j.json()) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []jobJSON `json:"jobs"`
	}{Jobs: make([]jobJSON, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = j.json()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.writeJobJSON(w, http.StatusOK, j)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.scope.WriteProgress(w) //nolint:errcheck // best-effort over HTTP
}

// metricsContentType is the Prometheus text exposition's media type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// finished returns a done job's stored entry. A failed, queued or running
// job has no artifacts: it is answered 409 and finished returns false.
func finished(w http.ResponseWriter, j *job) (resultcache.Entry, bool) {
	j.mu.Lock()
	state, errMsg, entry := j.state, j.errMsg, j.entry
	j.mu.Unlock()
	switch state {
	case "failed":
		httpError(w, http.StatusConflict, "job failed: %s", errMsg)
		return entry, false
	case "queued", "running":
		httpError(w, http.StatusConflict, "job is %s; poll /jobs/%s/progress", state, j.id)
		return entry, false
	}
	return entry, true
}

// handleReport serves the job's stored text report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	entry, ok := finished(w, j)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(entry.Report) //nolint:errcheck // best-effort over HTTP
}

// handleRederived serves a done job's timeline, bottleneck analysis or
// metrics, which no job keeps (see rederive). A job not yet done, or
// failed, has no timeline or bottleneck: it is answered 409. Its metrics are
// its live scope's: the last tick's clock and event count, and a report at
// most 16 ticks old (analysis.Scope.Sample).
func (s *Server) handleRederived(which string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(r)
		if j == nil {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		j.mu.Lock()
		done := j.state == "done"
		j.mu.Unlock()
		if which == "metrics" && !done {
			w.Header().Set("Content-Type", metricsContentType)
			j.scope.WriteMetrics(w) //nolint:errcheck // best-effort over HTTP
			return
		}
		if _, ok := finished(w, j); !ok {
			return
		}
		s.rederive(w, r, j, which)
	}
}

// rederive serves an artifact no job keeps — its "timeline", "bottleneck"
// analysis or end-of-run "metrics" — by running the done job's simulation
// again and streaming the artifact from that run. The run goes through the
// shared queue, so it is bounded like a job: a full queue answers 503, and a
// panic fails only this request. Determinism makes the bytes those of the
// job's first run.
func (s *Server) rederive(w http.ResponseWriter, r *http.Request, j *job, which string) {
	var scope *analysis.Scope
	var sample []func(analysis.Tick) // none: no sampler
	if which == "metrics" {
		scope = analysis.NewScope()
		sample = append(sample, scope.Sample)
	}
	done := make(chan farm.Result, 1) // the run may outlive a client that hung up
	err := s.queue.Submit(farm.Job{
		Name: j.id + "/" + which,
		Run: func(*farm.RunContext) (any, error) {
			s.rederived.Add(1)
			return s.simulate(j, which == "timeline", sample...)
		},
		OnResult: func(res farm.Result) { done <- res },
	}, j.cfg.Seed)
	if err != nil {
		s.log.Warn("re-derivation rejected", "job", j.id, "artifact", which, "err", err)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var res farm.Result
	select {
	case res = <-done:
	case <-r.Context().Done():
		return
	}
	if res.Err != nil {
		s.log.Error("re-derivation failed", "job", j.id, "artifact", which, "err", res.Err)
		httpError(w, http.StatusInternalServerError, "re-deriving %s: %v", which, res.Err)
		return
	}
	run := res.Value.(simRun)
	switch which {
	case "timeline":
		w.Header().Set("Content-Type", "application/json")
		run.m.MergedTimeline().WriteJSON(w) //nolint:errcheck // best-effort over HTTP
	case "bottleneck":
		w.Header().Set("Content-Type", "application/json")
		run.res.Analysis.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
	default:
		w.Header().Set("Content-Type", metricsContentType)
		scope.WriteMetrics(w) //nolint:errcheck // best-effort over HTTP
	}
}

// handleHostTrace serves the job's wall-clock schedule (cache lookup, queue
// wait, run) as a Chrome trace-event document.
func (s *Server) handleHostTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.host.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
}

// handleHealthz answers liveness probes: 200 with a small JSON status as
// long as the process serves requests.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out := struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
		Queued  int64   `json:"jobs_queued"`
		Running int64   `json:"jobs_running"`
	}{
		Status:  "ok",
		UptimeS: time.Since(s.started).Seconds(),
		Queued:  s.queued.Load(),
		Running: s.running.Load(),
	}
	json.NewEncoder(w).Encode(out) //nolint:errcheck // best-effort over HTTP
}

// handleMetrics serves the server-level exposition, read at request time:
// result-cache counters, job throughput gauges and the count of
// re-derivation runs.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := s.cache
	w.Header().Set("Content-Type", metricsContentType)
	probe.WritePrometheus(w, []stats.Metric{ //nolint:errcheck // best-effort over HTTP
		{Name: "resultcache.hits", Value: float64(c.Hits())},
		{Name: "resultcache.misses", Value: float64(c.Misses())},
		{Name: "resultcache.evictions", Value: float64(c.Evictions())},
		{Name: "resultcache.entries", Value: float64(c.Len())},
		{Name: "resultcache.bytes", Value: float64(c.Bytes()), Unit: "B"},
		{Name: "jobs.submitted", Value: float64(s.submitted.Load())},
		{Name: "jobs.completed", Value: float64(s.completed.Load())},
		{Name: "jobs.failed", Value: float64(s.failed.Load())},
		{Name: "jobs.rejected", Value: float64(s.rejected.Load())},
		{Name: "jobs.queued", Value: float64(s.queued.Load())},
		{Name: "jobs.running", Value: float64(s.running.Load())},
		{Name: "artifacts.rederived", Value: float64(s.rederived.Load())},
	})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("mermaidd: "+format, args...), code)
}
