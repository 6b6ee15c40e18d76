package analysis_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/pearl"
)

// Two scopes are fully independent: each serves its own kernel's clock,
// event count and report — the property the simulation server relies on
// when two jobs run concurrently. Finish keeps the last report; DropReport
// lets go of it.
func TestScopesAreIndependent(t *testing.T) {
	mkScope := func(messages float64, horizon pearl.Time) *analysis.Scope {
		s := analysis.NewScope()
		k := pearl.NewKernel()
		k.Spawn("worker", func(p *pearl.Process) {
			for i := pearl.Time(0); i < horizon; i += 10 {
				p.Hold(10)
			}
		})
		s.SetRuns(1)
		finish := watch(s, k, messages, 25)
		finish(k.Run())
		s.RunDone()
		return s
	}
	a := mkScope(7, 1000)
	b := mkScope(11, 5000)

	metrics := func(s *analysis.Scope) string {
		var sb strings.Builder
		if err := s.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if got := metrics(a); !strings.Contains(got, "mermaid_network_mesh_2x2__messages 7\n") {
		t.Errorf("scope A metrics:\n%s", got)
	}
	if got := metrics(b); !strings.Contains(got, "mermaid_network_mesh_2x2__messages 11\n") {
		t.Errorf("scope B metrics:\n%s", got)
	}
	a.Finish()
	b.Finish()
	if got := metrics(a); !strings.Contains(got, "mermaid_network_mesh_2x2__messages 7\n") {
		t.Errorf("finished scope A metrics, want the last report:\n%s", got)
	}
	a.DropReport()
	if got := metrics(a); strings.Contains(got, "messages") || !strings.Contains(got, "mermaid_virtual_cycles 1000\n") {
		t.Errorf("scope A metrics after DropReport, want the clock and events alone:\n%s", got)
	}

	var pa, pb2 struct {
		VirtualCycles int64 `json:"virtualCycles"`
		RunsDone      int   `json:"runsDone"`
		Done          bool  `json:"done"`
	}
	var ja, jb strings.Builder
	if err := a.WriteProgress(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteProgress(&jb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(ja.String()), &pa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(jb.String()), &pb2); err != nil {
		t.Fatal(err)
	}
	if pa.VirtualCycles != 1000 || pb2.VirtualCycles != 5000 {
		t.Errorf("scope clocks leaked into each other: %d, %d", pa.VirtualCycles, pb2.VirtualCycles)
	}
	if !pa.Done || !pb2.Done || pa.RunsDone != 1 || pb2.RunsDone != 1 {
		t.Errorf("scope completion wrong: %+v %+v", pa, pb2)
	}
}

// A nil scope accepts every call as a no-op, like the nil monitor.
func TestNilScope(t *testing.T) {
	var s *analysis.Scope
	s.Sample(analysis.Tick{At: 10})
	s.ObserveRun(100, 10)
	s.SetRuns(1)
	s.RunDone()
	s.Finish()
	s.DropReport()
	if err := s.WriteMetrics(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProgress(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Close must not truncate in-flight scrapes: it stops the listener but lets
// requests already being answered complete. Scrapers hammer the endpoints
// while Close runs; every response that arrives without a transport error
// must be a complete document, never a cut-off body.
func TestMonitorCloseGraceful(t *testing.T) {
	mon, err := analysis.NewMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := pearl.NewKernel()
	k.Spawn("worker", func(p *pearl.Process) {
		for i := 0; i < 100; i++ {
			p.Hold(10)
		}
	})
	watch(mon.Scope(), k, 42, 50)(k.Run())
	mon.Scope().Finish()

	addr := mon.Addr()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					return // listener closed: new connections may fail
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape %d truncated mid-body: %v", i, err)
					return
				}
				if resp.StatusCode == http.StatusOK && !strings.Contains(string(body), "mermaid_events_total") {
					t.Errorf("scrape %d incomplete body:\n%s", i, body)
					return
				}
			}
		}()
	}
	close(start)
	if err := mon.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()

	// After Close the port no longer accepts scrapes.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("monitor still serving after Close")
	}
}
