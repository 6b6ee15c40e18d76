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
	// read is set once WriteMetrics has rendered the held report, and age
	// counts the ticks since the scope took it.
	read bool
	age  int

	started time.Time
}

// NewScope returns an empty scope whose wall clock starts now.
func NewScope() *Scope {
	return &Scope{started: time.Now()}
}

// snapshot is what the handlers may read: plain values copied out of the
// simulation on its own goroutine, and the last report tree the scope took,
// which no one modifies once the sampler has handed it out.
type snapshot struct {
	virtual   int64
	events    uint64
	report    *stats.Set
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

// Tick is what a run's sampling chain (machine.Machine.StartSampler) hands
// each of its consumers at a tick, and once more after the run: the virtual
// time, the kernel's event count, and the run's report tree as it stands,
// which Report builds on first request, once for all the tick's consumers.
// Report is valid only during the call; the tree it returns must not be
// modified.
type Tick struct {
	At     pearl.Time
	Events uint64
	Final  bool // the end-of-run report: Report returns the result's tree
	Report func() *stats.Set
}

// maxTreeAge is how many ticks a scope keeps a report tree nobody has read
// before it takes a fresh one. A tree costs a whole report build (every
// node's sets, about 31 KB on a 64-node machine), and a job's scope is
// mostly never scraped; 16 ticks divide that cost by 16 and keep an unread
// tree within 160,000 cycles of the clock at the default 10,000-cycle
// interval. A read makes the next tick take a fresh tree, so a client that
// polls sees one at most a poll interval old.
const maxTreeAge = 16

// Sample is the scope's consumer on the run's sampling chain: it keeps the
// tick's clock and event count for /progress and /metrics, and takes the
// tick's report tree when it holds none, when its tree has been read, when
// that tree is maxTreeAge ticks old, and always at the end of the run.
func (s *Scope) Sample(t Tick) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.virtual = int64(t.At)
	s.snap.events = t.Events
	if t.Final || s.snap.report == nil || s.read || s.age+1 >= maxTreeAge {
		s.snap.report, s.read, s.age = t.Report(), false, 0
	} else {
		s.age++
	}
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

// DropReport lets go of the scope's report tree: the scope's metrics
// are then the virtual clock and the event count alone. The simulation
// server calls it once a job is done, whose /metrics it re-derives.
func (s *Scope) DropReport() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snap.report = nil
	s.mu.Unlock()
}

// WriteMetrics renders the scope's state in Prometheus text exposition
// format: the last tick's virtual clock and event count, and every metric of
// the report the scope holds under its path (stats.Flatten), as
// probe.WritePrometheus names it. Rendering a report marks it read, so the
// next tick takes a fresh one.
func (s *Scope) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := s.snap
	s.read = snap.report != nil
	s.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# TYPE mermaid_virtual_cycles gauge\nmermaid_virtual_cycles %d\n", snap.virtual); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE mermaid_events_total counter\nmermaid_events_total %d\n", snap.events); err != nil {
		return err
	}
	if snap.report == nil {
		return nil
	}
	return probe.WritePrometheus(w, stats.Flatten(snap.report))
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
// GET /metrics returns the scope's report in Prometheus text exposition
// format, GET /progress returns a JSON snapshot of virtual time, wall time,
// event throughput and experiment completion.
//
// The simulation goroutine owns the kernel and the model; the handlers never
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
