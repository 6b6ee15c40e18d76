package machine

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/sim"
	"mermaid/internal/workload"
)

func TestParseConfigVersions(t *testing.T) {
	parse := func(version int) error {
		t.Helper()
		cfg := T805Grid(2, 2)
		cfg.Version = version
		cfg.Faults = &fault.Schedule{Nodes: []fault.NodeFault{{Node: 1, Window: fault.Window{From: 10, To: 20}}}}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseConfig(data)
		if err == nil && (back.Faults == nil || len(back.Faults.Nodes) != 1) {
			t.Errorf("faults lost in round trip: %+v", back.Faults)
		}
		return err
	}
	// The current schema, fault plan included, parses.
	if err := parse(ConfigVersion); err != nil {
		t.Fatal(err)
	}
	// An unversioned (v0) or v1 file is refused with the fix in the message:
	// every field those schemas had reads the same in the current one.
	for _, old := range []int{0, 1} {
		if err := parse(old); err == nil || !strings.Contains(err.Error(), `set "version": 2`) {
			t.Errorf("version %d: err = %v, want a refusal that says to set the version", old, err)
		}
	}
	// Future schema versions are rejected rather than misread.
	if err := parse(99); err == nil || !strings.Contains(err.Error(), "unsupported config version") {
		t.Errorf("future version accepted (err = %v)", err)
	}
}

func TestFaultsRequireNetwork(t *testing.T) {
	cfg := PPC601Machine() // single node, no interconnect
	cfg.Faults = &fault.Schedule{Nodes: []fault.NodeFault{{Node: 0}}}
	if err := cfg.Validate(); err == nil {
		t.Error("fault plan on an un-networked machine accepted")
	}
}

// runPingPong builds a 2x1 transputer grid (one physical link, so a link
// fault severs the machine) with no probe attached, runs a ping-pong under
// the given fault plan and returns the run's report. A run that stops with an
// error returns no Result, so its report is taken from the machine as the
// run left it.
func runPingPong(t *testing.T, sched *fault.Schedule) (*Result, error) {
	t.Helper()
	cfg := T805Grid(2, 1)
	cfg.Faults = sched
	m, err := Build(sim.NewEnv(cfg.Seed, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(workload.PingPong(10, 1024))
	if err != nil {
		res = m.result(m.k.Now(), 0)
	}
	return res, err
}

// faultCount reads a fault quantity of a report: the network set's
// "retransmits" or "lost packets", or the faults set's "drops".
func faultCount(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	set := res.Stats.Prefixed("network ")
	if name == "drops" {
		set = res.Stats.Lookup("faults")
	}
	v, ok := set.Get(name)
	if !ok {
		t.Fatalf("report has no %q", name)
	}
	return v
}

func TestLinkFlapRecoversThroughRetransmission(t *testing.T) {
	healthy, err := runPingPong(t, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flap the only link mid-run: every packet in the window is dropped and
	// must be recovered by retransmission once the link returns.
	res, err := runPingPong(t, &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 3_000, To: 15_000}}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	})
	if err != nil {
		t.Fatalf("flapped run did not recover: %v", err)
	}
	if faultCount(t, res, "retransmits") == 0 {
		t.Error("link flap recovered without retransmissions")
	}
	if lost := faultCount(t, res, "lost packets"); lost != 0 {
		t.Errorf("%v packets abandoned despite recovery window", lost)
	}
	if faultCount(t, res, "drops") == 0 {
		t.Error("no drops recorded across a down window")
	}
	if res.Cycles <= healthy.Cycles {
		t.Errorf("flapped run took %d cycles, healthy %d; faults must cost time", res.Cycles, healthy.Cycles)
	}

	// The faulty run is deterministic: an identical build reproduces it.
	res2, err := runPingPong(t, &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 3_000, To: 15_000}}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1, r2 := faultCount(t, res, "retransmits"), faultCount(t, res2, "retransmits"); res2.Cycles != res.Cycles || r2 != r1 {
		t.Errorf("fault run not reproducible: %d/%d cycles, %v/%v retransmits",
			res.Cycles, res2.Cycles, r1, r2)
	}
}

func TestPermanentPartitionAbandonsPackets(t *testing.T) {
	// The only link stays down forever and retries are few: the sender gives
	// the packet up and the machine reports the resulting deadlock honestly.
	res, err := runPingPong(t, &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 0}}},
		Retrans: fault.Retrans{Timeout: 100, Backoff: 2, MaxRetries: 2},
	})
	var dead *deadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("severed machine finished with err = %v, want DeadlockError", err)
	}
	if faultCount(t, res, "lost packets") == 0 {
		t.Error("no packets abandoned on a permanently severed link")
	}
}

func TestEmptyFaultScheduleBuildsNoInjector(t *testing.T) {
	cfg := T805Grid(2, 1)
	cfg.Faults = &fault.Schedule{Retrans: fault.Retrans{Timeout: 9}} // inert
	m, err := Build(sim.NewEnv(cfg.Seed, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.inj != nil {
		t.Error("inert schedule built an injector")
	}
}
