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
	"mermaid/internal/probe"
)

// Two scopes are fully independent: each serves its own kernel's clock,
// event count and registry values — the property the simulation server
// relies on when two jobs run concurrently.
func TestScopesAreIndependent(t *testing.T) {
	mkScope := func(gauge float64, horizon pearl.Time) *analysis.Scope {
		s := analysis.NewScope()
		k := pearl.NewKernel()
		pb := probe.New(probe.Config{})
		pb.Registry().Gauge("net.messages", "count", func() float64 { return gauge })
		k.Spawn("worker", func(p *pearl.Process) {
			for i := pearl.Time(0); i < horizon; i += 10 {
				p.Hold(10)
			}
		})
		s.SetRuns(1)
		finish := watch(t, s, k, pb.Registry(), 25)
		finish(k.Run())
		s.RunDone()
		s.Finish()
		return s
	}
	a := mkScope(7, 1000)
	b := mkScope(11, 5000)

	var wa, wb strings.Builder
	if err := a.WriteMetrics(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetrics(&wb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wa.String(), "mermaid_net_messages 7") {
		t.Errorf("scope A metrics:\n%s", wa.String())
	}
	if !strings.Contains(wb.String(), "mermaid_net_messages 11") {
		t.Errorf("scope B metrics:\n%s", wb.String())
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
	s.Sample(pearl.NewKernel(), nil)
	s.ObserveRun(100, 10)
	s.SetRuns(1)
	s.RunDone()
	s.Finish()
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
	pb := probe.New(probe.Config{})
	pb.Registry().Gauge("net.messages", "count", func() float64 { return 42 })
	k.Spawn("worker", func(p *pearl.Process) {
		for i := 0; i < 100; i++ {
			p.Hold(10)
		}
	})
	watch(t, mon.Scope(), k, pb.Registry(), 50)(k.Run())
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
