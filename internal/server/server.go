// Package server turns the workbench into a service: a long-running HTTP
// front end through which many users explore many machine variants against
// shared machinery — the paper's "environment" claim, made multi-tenant.
//
// POST /jobs accepts a machine configuration (schema v2, full JSON or a
// compact -topology spec) plus a stochastic workload description and an
// optional fault schedule, and answers with a job id. A bounded queue feeds
// a shared farm of simulation workers; every job owns an analysis.Scope, so
// GET /jobs/{id}/progress and /jobs/{id}/metrics stream per-job live state
// while concurrent jobs stay independent. Finished artifacts — the text
// report, the Perfetto timeline, the bottleneck analysis and the final
// metrics exposition — are served from /jobs/{id}/report, /timeline,
// /bottleneck and /metrics.
//
// Because the workbench is deterministic (byte-identical reports at any
// worker or shard count), finished artifacts are cached content-addressed
// by (config hash, workload hash, seed): resubmitting an identical job is
// answered from internal/resultcache without running a simulation, and the
// response bytes equal the original run's. Cache hits and misses are
// visible on the server-level GET /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
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
	"mermaid/internal/fault"
	"mermaid/internal/hostprobe"
	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/resultcache"
	"mermaid/internal/stochastic"
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
	reg     *probe.Registry
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
}

// job is the server-side state of one submission. The immutable fields are
// set at creation; everything behind mu changes as the job advances.
type job struct {
	id      string
	name    string
	key     resultcache.Key
	scope   *analysis.Scope
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
		reg:     new(probe.Registry),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.queue = farm.New(cfg.Workers).StartQueue(cfg.QueueDepth)

	s.cache.Register(s.reg)
	s.reg.Gauge("jobs.submitted", "", func() float64 { return float64(s.submitted.Load()) })
	s.reg.Gauge("jobs.completed", "", func() float64 { return float64(s.completed.Load()) })
	s.reg.Gauge("jobs.failed", "", func() float64 { return float64(s.failed.Load()) })
	s.reg.Gauge("jobs.rejected", "", func() float64 { return float64(s.rejected.Load()) })
	s.reg.Gauge("jobs.queued", "", func() float64 { return float64(s.queued.Load()) })
	s.reg.Gauge("jobs.running", "", func() float64 { return float64(s.running.Load()) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /jobs/{id}/report", s.artifact("report", "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/timeline", s.artifact("timeline", "application/json"))
	mux.HandleFunc("GET /jobs/{id}/bottleneck", s.artifact("bottleneck", "application/json"))
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

// jobSpec is the POST /jobs request document.
type jobSpec struct {
	// Name optionally labels the job in listings; defaults to the machine
	// configuration's name.
	Name string `json:"name,omitempty"`
	// Config is a full machine configuration (schema v2), exclusive with
	// Topology.
	Config json.RawMessage `json:"config,omitempty"`
	// Topology builds a task-level machine from a compact spec string
	// ("torus:8x8", "fattree:32x3", ...), exclusive with Config.
	Topology string `json:"topology,omitempty"`
	// Engine overrides the task-level execution engine (auto, process,
	// compact).
	Engine string `json:"engine,omitempty"`
	// Seed overrides the configuration's seed — the third component of the
	// cache key.
	Seed *uint64 `json:"seed,omitempty"`
	// Faults is an optional fault schedule document, as for -faults.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Workload is the stochastic application description to run, as for
	// -desc. Its own Seed drives trace generation and is covered by the
	// workload hash.
	Workload json.RawMessage `json:"workload"`
}

// buildJob resolves a request document into a runnable (config, workload)
// pair and the cache key that addresses its outcome.
func (s *Server) buildJob(spec *jobSpec) (machine.Config, stochastic.Desc, resultcache.Key, error) {
	var (
		cfg machine.Config
		err error
	)
	switch {
	case len(spec.Config) > 0 && spec.Topology != "":
		return cfg, stochastic.Desc{}, resultcache.Key{}, fmt.Errorf("give exactly one of config and topology")
	case len(spec.Config) > 0:
		cfg, err = machine.ParseConfig(spec.Config)
	case spec.Topology != "":
		cfg, err = machine.TaskMachineFromSpec(spec.Topology)
	default:
		return cfg, stochastic.Desc{}, resultcache.Key{}, fmt.Errorf("a machine is required: config or topology")
	}
	if err != nil {
		return cfg, stochastic.Desc{}, resultcache.Key{}, err
	}
	if spec.Engine != "" {
		cfg.Engine = spec.Engine
	}
	if spec.Seed != nil {
		cfg.Seed = *spec.Seed
	}
	if len(spec.Faults) > 0 {
		sched, ferr := fault.ParseSchedule(spec.Faults)
		if ferr != nil {
			return cfg, stochastic.Desc{}, resultcache.Key{}, ferr
		}
		cfg.Faults = sched
	}
	if cfg.Shards > 0 {
		// Per-job live monitoring and the bottleneck collector observe one
		// kernel; the parallel engine is for offline runs.
		return cfg, stochastic.Desc{}, resultcache.Key{}, fmt.Errorf("shards are not supported by the server; submit with shards 0")
	}
	if err := cfg.Validate(); err != nil {
		return cfg, stochastic.Desc{}, resultcache.Key{}, err
	}

	if len(spec.Workload) == 0 {
		return cfg, stochastic.Desc{}, resultcache.Key{}, fmt.Errorf("a workload description is required")
	}
	var desc stochastic.Desc
	dec := json.NewDecoder(bytes.NewReader(spec.Workload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&desc); err != nil {
		return cfg, desc, resultcache.Key{}, fmt.Errorf("parsing workload: %w", err)
	}
	streams := cfg.Nodes
	if cfg.Mode == machine.Detailed {
		streams = cfg.Nodes * cfg.Node.Hierarchy.CPUs
	}
	if desc.Nodes == 0 {
		desc.Nodes = streams
	}
	if desc.Nodes != streams {
		return cfg, desc, resultcache.Key{}, fmt.Errorf("workload describes %d nodes, machine has %d streams", desc.Nodes, streams)
	}
	if (desc.Level == stochastic.TaskLevel) != (cfg.Mode == machine.TaskLevel) {
		return cfg, desc, resultcache.Key{}, fmt.Errorf("%s-level workload on a %s-mode machine", desc.Level, cfg.Mode)
	}
	if err := desc.Validate(); err != nil {
		return cfg, desc, resultcache.Key{}, err
	}

	cfgHash, err := cfg.Hash()
	if err != nil {
		return cfg, desc, resultcache.Key{}, err
	}
	wlHash, err := machine.CanonicalJSONHash(spec.Workload)
	if err != nil {
		return cfg, desc, resultcache.Key{}, err
	}
	return cfg, desc, resultcache.Key{Config: cfgHash, Workload: wlHash, Seed: cfg.Seed}, nil
}

// execute runs one job's simulation on a worker goroutine and renders its
// artifacts. The job's scope is sampled live during the run and once more
// at the end, so the stored metrics are the exact end-of-run values.
func (s *Server) execute(j *job, cfg machine.Config, desc stochastic.Desc) (resultcache.Entry, error) {
	pb := probe.New(probe.Config{Timeline: true})
	wb, err := core.New(cfg, core.WithProbe(pb), core.WithAnalysis())
	if err != nil {
		return resultcache.Entry{}, err
	}
	m, err := wb.Build()
	if err != nil {
		return resultcache.Entry{}, err
	}
	k, reg := m.Kernel(), pb.Registry()
	finish, err := reg.StartSampler(k, s.cfg.SampleEvery, func(pearl.Time) { j.scope.Sample(k, reg) })
	if err != nil {
		return resultcache.Entry{}, err
	}
	res, err := m.RunStochastic(desc)
	if err != nil {
		return resultcache.Entry{}, err
	}
	finish(res.Cycles)

	var entry resultcache.Entry
	var buf bytes.Buffer
	if err := wb.Report(&buf, res); err != nil {
		return entry, err
	}
	entry.Report = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := j.scope.WriteMetrics(&buf); err != nil {
		return entry, err
	}
	entry.Metrics = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := m.MergedTimeline().WriteJSON(&buf); err != nil {
		return entry, err
	}
	entry.Timeline = append([]byte(nil), buf.Bytes()...)
	if res.Analysis != nil {
		buf.Reset()
		if err := res.Analysis.WriteJSON(&buf); err != nil {
			return entry, err
		}
		entry.Bottleneck = append([]byte(nil), buf.Bytes()...)
	}
	entry.Cycles = int64(res.Cycles)
	entry.Events = res.Events
	return entry, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "parsing job: %v", err)
		return
	}
	cfg, desc, key, err := s.buildJob(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name := spec.Name
	if name == "" {
		name = cfg.Name
	}

	j := &job{
		name:    name,
		key:     key,
		scope:   analysis.NewScope(),
		created: time.Now(),
		host:    hostprobe.NewTrace(),
	}
	j.hostTrk = j.host.Track("job")
	j.scope.SetRuns(1)

	lookupStart := time.Now()
	entry, hit := s.cache.Get(key)
	j.host.SpanSince(j.hostTrk, "cache.lookup", lookupStart)
	if hit {
		// Determinism makes the stored artifacts byte-identical to what a
		// fresh run would produce — answer without touching a kernel.
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
		Name: name,
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
			v, err := s.execute(j, cfg, desc)
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
			s.completed.Add(1)
			s.log.Info("job finished", "job", j.id,
				"wall_ms", durMS(res.Wall), "queue_wait_ms", durMS(res.QueueWait),
				"cycles", entry.Cycles, "events", entry.Events)
		},
	}
	if err := s.queue.Submit(fj, cfg.Seed); err != nil {
		s.unregister(j)
		s.rejected.Add(1)
		s.log.Warn("job rejected", "name", name, "err", err)
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

// handleJobMetrics serves the job's metric state: the stored end-of-run
// exposition once the job is done (byte-identical on cache hits), the live
// scope sample while it runs.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	j.mu.Lock()
	final := j.entry.Metrics
	j.mu.Unlock()
	if final != nil {
		w.Write(final) //nolint:errcheck
		return
	}
	j.scope.WriteMetrics(w) //nolint:errcheck // best-effort over HTTP
}

// artifact serves one finished artifact of a job.
func (s *Server) artifact(which, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(r)
		if j == nil {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		j.mu.Lock()
		state := j.state
		errMsg := j.errMsg
		var data []byte
		switch which {
		case "report":
			data = j.entry.Report
		case "timeline":
			data = j.entry.Timeline
		case "bottleneck":
			data = j.entry.Bottleneck
		}
		j.mu.Unlock()
		switch state {
		case "failed":
			httpError(w, http.StatusConflict, "job failed: %s", errMsg)
			return
		case "queued", "running":
			httpError(w, http.StatusConflict, "job is %s; poll /jobs/%s/progress", state, j.id)
			return
		}
		if data == nil {
			httpError(w, http.StatusNotFound, "job has no %s artifact", which)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(data) //nolint:errcheck // best-effort over HTTP
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

// handleMetrics serves the server-level exposition: result-cache hit/miss
// counters and job throughput gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	probe.WritePrometheus(w, s.reg.Snapshot()) //nolint:errcheck // best-effort over HTTP
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("mermaidd: "+format, args...), code)
}
