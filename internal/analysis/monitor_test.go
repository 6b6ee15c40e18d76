package analysis_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
	"mermaid/internal/stats"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// watch feeds the scope the way a machine's sampler does
// (machine.Machine.StartSampler): a daemon tick every `every` cycles hands it
// the clock, the kernel's event count and a builder of a report tree — the
// event count and a network's message count — and the returned function
// hands it the end-of-run report after the run.
func watch(s *analysis.Scope, k *pearl.Kernel, messages float64, every pearl.Time) func(end pearl.Time) {
	report := func() *stats.Set {
		r := stats.NewSet("machine test")
		r.PutUint("events", k.EventCount(), "")
		r.Sub("network mesh(2x2)").Put("messages", messages, "")
		return r
	}
	var tick func()
	tick = func() {
		s.Sample(analysis.Tick{At: k.Now(), Events: k.EventCount(), Report: report})
		k.AtDaemon(k.Now()+every, tick)
	}
	k.AtDaemon(every, tick)
	return func(end pearl.Time) {
		s.Sample(analysis.Tick{At: end, Events: k.EventCount(), Final: true, Report: report})
	}
}

// The monitor serves the live report over HTTP without touching the
// simulation from handler goroutines: /metrics is Prometheus text
// exposition, /progress is a JSON snapshot with run completion.
func TestMonitorEndpoints(t *testing.T) {
	mon, err := analysis.NewMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if mon.Addr() == "" {
		t.Fatal("monitor has no bound address")
	}

	k := pearl.NewKernel()
	k.Spawn("worker", func(p *pearl.Process) {
		for i := 0; i < 100; i++ {
			p.Hold(10)
		}
	})
	scope := mon.Scope()
	scope.SetRuns(3)
	watch(scope, k, 42, 50)
	k.RunUntil(1000)
	scope.RunDone()
	scope.RunDone()

	metrics, ctype := get(t, "http://"+mon.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q, want text/plain", ctype)
	}
	for _, want := range []string{
		"# TYPE mermaid_virtual_cycles gauge",
		"# TYPE mermaid_events_total counter",
		"# TYPE mermaid_network_mesh_2x2__messages gauge",
		"mermaid_network_mesh_2x2__messages 42",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	progress, ctype := get(t, "http://"+mon.Addr()+"/progress")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/progress content type = %q, want application/json", ctype)
	}
	var p struct {
		VirtualCycles int64   `json:"virtualCycles"`
		Events        uint64  `json:"events"`
		WallSeconds   float64 `json:"wallSeconds"`
		RunsDone      int     `json:"runsDone"`
		RunsTotal     int     `json:"runsTotal"`
		Done          bool    `json:"done"`
	}
	if err := json.Unmarshal([]byte(progress), &p); err != nil {
		t.Fatalf("/progress is not valid JSON: %v\n%s", err, progress)
	}
	if p.VirtualCycles == 0 {
		t.Error("/progress reports zero virtual cycles after a 1000-cycle run")
	}
	if p.RunsDone != 2 || p.RunsTotal != 3 {
		t.Errorf("/progress runs = %d/%d, want 2/3", p.RunsDone, p.RunsTotal)
	}
	if p.Done {
		t.Error("/progress reports done before Finish")
	}

	scope.Finish()
	progress, _ = get(t, "http://"+mon.Addr()+"/progress")
	if err := json.Unmarshal([]byte(progress), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Error("/progress does not report done after Finish")
	}

	// Daemon sampling must not keep a run alive or advance virtual time: the
	// kernel stopped when the worker finished or at the horizon, whichever
	// came first, regardless of the monitor's tick schedule.
	if now := k.Now(); now > 1000 {
		t.Errorf("monitor ticks advanced virtual time to %d past the horizon", now)
	}
}
