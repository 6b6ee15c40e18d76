package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/stats"
)

// Scope is the live state of one monitored simulation: a mutex-protected
// snapshot that the simulation side writes (from its own goroutine, or from
// farm workers via ObserveRun/RunDone) and any number of HTTP handlers read.
//
// A Monitor serves one process-wide scope — the single-invocation CLI case —
// while the simulation server gives every job its own scope, so two jobs
// running concurrently report independent progress and metrics streams.
//
// A nil *Scope is the disabled scope: every method no-ops without
// allocating.
type Scope struct {
	mu   sync.Mutex
	snap snapshot

	started time.Time
}

// NewScope returns an empty scope whose wall clock starts now.
func NewScope() *Scope {
	return &Scope{started: time.Now()}
}

// snapshot is what the handlers may read: plain values copied out of the
// simulation on its own goroutine.
type snapshot struct {
	virtual   int64
	events    uint64
	metrics   []stats.Metric
	runsDone  int
	runsTotal int
	finished  bool
}

// progressJSON is the wire format of GET /progress.
type progressJSON struct {
	VirtualCycles int64   `json:"virtualCycles"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"eventsPerSec"`
	WallSeconds   float64 `json:"wallSeconds"`
	RunsDone      int     `json:"runsDone"`
	RunsTotal     int     `json:"runsTotal"`
	Done          bool    `json:"done"`
}

// Sample copies the current kernel and registry state into the snapshot: the
// scope's consumer on the run's sampling chain (probe.Registry.StartSampler),
// which calls it at every tick and once more, with the exact end-of-run
// values, after the run. Must run on the simulation goroutine.
func (s *Scope) Sample(k *pearl.Kernel, reg *probe.Registry) {
	if s == nil {
		return
	}
	ms := reg.Snapshot()
	s.mu.Lock()
	s.snap.virtual = int64(k.Now())
	s.snap.events = k.EventCount()
	s.snap.metrics = ms
	s.mu.Unlock()
}

// ObserveRun accumulates a completed run's simulated volume into the
// snapshot — the farm path's progress feed, where no single kernel can be
// watched. Safe to call from worker goroutines.
func (s *Scope) ObserveRun(cycles pearl.Time, events uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.virtual += int64(cycles)
	s.snap.events += events
	s.mu.Unlock()
}

// SetRuns declares how many runs (experiments × repeats) the scope covers,
// for the completion fraction in /progress.
func (s *Scope) SetRuns(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.runsTotal = n
	s.mu.Unlock()
}

// RunDone marks one run complete. Safe to call from farm worker goroutines.
func (s *Scope) RunDone() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.runsDone++
	s.mu.Unlock()
}

// Finish marks the scope's work complete; progress reports done:true.
func (s *Scope) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.finished = true
	s.mu.Unlock()
}

// WriteMetrics renders the scope's last sampled state in Prometheus text
// exposition format: the virtual clock, the event count, and every registry
// metric as probe.WritePrometheus names it.
func (s *Scope) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := s.snap // metrics is replaced whole by Sample, never written in place
	s.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# TYPE mermaid_virtual_cycles gauge\nmermaid_virtual_cycles %d\n", snap.virtual); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE mermaid_events_total counter\nmermaid_events_total %d\n", snap.events); err != nil {
		return err
	}
	return probe.WritePrometheus(w, snap.metrics)
}

// WriteProgress renders the scope's completion state as the /progress JSON
// document.
func (s *Scope) WriteProgress(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	p := progressJSON{
		VirtualCycles: s.snap.virtual,
		Events:        s.snap.events,
		RunsDone:      s.snap.runsDone,
		RunsTotal:     s.snap.runsTotal,
		Done:          s.snap.finished,
	}
	started := s.started
	s.mu.Unlock()
	p.WallSeconds = time.Since(started).Seconds()
	p.EventsPerSec = eventsPerSec(p.Events, p.WallSeconds)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Monitor serves one Scope over HTTP while a simulation executes:
// GET /metrics returns the probe registry in Prometheus text exposition
// format, GET /progress returns a JSON snapshot of virtual time, wall time,
// event throughput and experiment completion.
//
// The simulation goroutine owns the kernel and registry; the handlers never
// touch them. They serve from the scope's mutex-protected snapshot, which the
// simulation side fills (Scope.Sample on the run's sampling chain, or
// ObserveRun/RunDone from farm workers).
type Monitor struct {
	ln    net.Listener
	srv   *http.Server
	scope *Scope
}

// NewMonitor starts serving on addr (host:port; port 0 picks a free port).
// Returns an error if the address cannot be bound.
func NewMonitor(addr string) (*Monitor, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &Monitor{ln: ln, scope: NewScope()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.scope.WriteMetrics(w) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m.scope.WriteProgress(w) //nolint:errcheck // best-effort over HTTP
	})
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln) //nolint:errcheck // closed via Close
	return m, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:41373".
func (m *Monitor) Addr() string { return m.ln.Addr().String() }

// Scope returns the scope the monitor serves: what the simulation side
// writes. Hold it as a *Scope — nil when monitoring is off — and every call
// site stays unconditional.
func (m *Monitor) Scope() *Scope { return m.scope }

// closeDeadline bounds how long Close waits for in-flight scrapes.
const closeDeadline = 2 * time.Second

// Close shuts the HTTP server down gracefully: the listener closes
// immediately (no new scrapes), but requests already being answered run to
// completion, so the final scrape of a finished run is never truncated
// mid-response. A client that still has not drained its response at the
// deadline is cut off hard so Close can never hang the process.
func (m *Monitor) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	if err := m.srv.Shutdown(ctx); err != nil {
		return m.srv.Close()
	}
	return nil
}

// eventsPerSec computes the host event throughput, reporting 0 when the
// interval is degenerate: a zero or negative wall clock (a request landing in
// the same tick the monitor started, or a stepped clock) must not divide to
// Inf/NaN in the JSON, and a denormal-small interval must not overflow.
func eventsPerSec(events uint64, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	rate := float64(events) / wallSeconds
	if math.IsInf(rate, 0) || math.IsNaN(rate) {
		return 0
	}
	return rate
}
