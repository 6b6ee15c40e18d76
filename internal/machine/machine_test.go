package machine

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/router"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

func TestValidate(t *testing.T) {
	good := T805Grid(2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Mode: Detailed, Nodes: 0},
		{Mode: "warp", Nodes: 2},
		{Mode: TaskLevel, Nodes: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestPresetsBuild(t *testing.T) {
	for _, cfg := range []Config{
		T805Grid(2, 2),
		T805GridTaskLevel(2, 2),
		PPC601Machine(),
		PPC601SMP(4),
		HybridCluster(2, 2, 2),
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestTopologySizeMismatch(t *testing.T) {
	cfg := T805Grid(2, 2)
	cfg.Nodes = 5
	if _, err := New(cfg); err == nil {
		t.Fatal("expected topology size mismatch error")
	}
}

func TestStreamsCount(t *testing.T) {
	m, _ := New(T805Grid(2, 2))
	if m.Streams() != 4 {
		t.Fatalf("streams = %d, want 4", m.Streams())
	}
	m, _ = New(HybridCluster(2, 2, 2))
	if m.Streams() != 8 {
		t.Fatalf("hybrid streams = %d, want 8 (4 nodes x 2 CPUs)", m.Streams())
	}
	m, _ = New(T805GridTaskLevel(2, 2))
	if m.Streams() != 4 {
		t.Fatalf("task streams = %d, want 4", m.Streams())
	}
}

func TestRunDetailedPingPong(t *testing.T) {
	m, err := New(T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []trace.Source{
		trace.FromOps([]ops.Op{
			ops.NewLoad(ops.MemWord, 0x1000),
			ops.NewSend(256, 1, 0),
			ops.NewRecv(1, 1),
		}),
		trace.FromOps([]ops.Op{
			ops.NewRecv(0, 0),
			ops.NewSend(256, 0, 1),
		}),
	}
	res, err := m.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	// Only abstract machine instructions count; communication operations are
	// handled by the communication model.
	if res.Cycles == 0 || res.Instructions != 1 {
		t.Fatalf("cycles=%d instrs=%d", res.Cycles, res.Instructions)
	}
	if res.Processors != 2 {
		t.Fatalf("processors = %d", res.Processors)
	}
	if res.Stats.Lookup("node0") == nil {
		t.Fatal("stats missing node0")
	}
}

func TestRunStochasticTaskLevel(t *testing.T) {
	m, err := New(T805GridTaskLevel(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunStochastic(stochastic.Desc{
		Nodes: 4, Level: stochastic.TaskLevel, Seed: 7, Iterations: 3,
		Phases: []stochastic.Phase{{
			Duration: 10000, CV: 0.2,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 30000 {
		t.Fatalf("cycles = %d, want >= 3x10000 compute", res.Cycles)
	}
	if msgs, _ := res.Stats.Prefixed("network ").Get("messages"); msgs != 12 { // 4 nodes x 3 iterations
		t.Fatalf("messages = %v, want 12", msgs)
	}
}

func TestRunStochasticLevelMismatch(t *testing.T) {
	m, _ := New(T805GridTaskLevel(2, 2))
	_, err := m.RunStochastic(stochastic.Desc{
		Nodes: 4, Level: stochastic.InstructionLevel, Seed: 1, Iterations: 1,
		Phases: []stochastic.Phase{{Instructions: 10}},
	})
	if err == nil {
		t.Fatal("expected level/mode mismatch error")
	}
}

func TestRunProgramExecutionDriven(t *testing.T) {
	m, err := New(T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var got any
	res, err := m.RunProgram(&trace.Program{
		Threads: 2,
		Body: func(th *trace.Thread) {
			if th.ID() == 0 {
				th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
				th.Send(1, 64, 0, "hello")
			} else {
				got = th.Recv(0, 0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	if res.Cycles == 0 {
		t.Fatal("no simulated time")
	}
}

func TestDeadlockReported(t *testing.T) {
	m, _ := New(T805GridTaskLevel(2, 2))
	srcs := []trace.Source{
		trace.FromOps([]ops.Op{ops.NewRecv(1, 0)}), // never sent
		trace.FromOps(nil),
		trace.FromOps(nil),
		trace.FromOps(nil),
	}
	_, err := m.Run(srcs)
	de, ok := err.(*deadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) == 0 {
		t.Fatal("no blocked processes listed")
	}
	if got := strings.Join(de.Blocked, ", "); got != "proc0 (await)" {
		t.Errorf("blocked: %s, want node 0's processor parked on its receive", got)
	}

	// Detailed: a link severed for good, and retransmission giving up, leave
	// both CPUs of a ping-pong awaiting messages that never come.
	severed := T805Grid(2, 1)
	severed.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 0}}},
		Retrans: fault.Retrans{Timeout: 100, Backoff: 2, MaxRetries: 2},
	}
	m, err = New(severed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunProgram(workload.PingPong(10, 1024))
	const want = "machine: simulation deadlocked; blocked: node0.cpu0 (await), node1.cpu0 (await)"
	if err == nil || err.Error() != want {
		t.Errorf("severed ping-pong: err = %v, want %q", err, want)
	}
}

func TestWrongSourceCount(t *testing.T) {
	m, _ := New(T805Grid(2, 1))
	if _, err := m.Run([]trace.Source{trace.FromOps(nil)}); err == nil {
		t.Fatal("expected stream-count error")
	}
}

func TestResultMetrics(t *testing.T) {
	m, _ := New(PPC601Machine())
	res, err := m.Run([]trace.Source{trace.FromOps([]ops.Op{
		ops.NewArith(ops.Div, ops.TypeInt), // 36 cycles
	})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 36 {
		t.Fatalf("cycles = %d, want 36", res.Cycles)
	}
	if res.CyclesPerSecond() <= 0 {
		t.Fatal("cycles/second not positive")
	}
	// Slowdown per processor at a 1 GHz host must be positive and finite.
	if s := res.SlowdownPerProcessor(1e9); s <= 0 {
		t.Fatalf("slowdown = %v", s)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := HybridCluster(2, 2, 2)
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != cfg.Nodes || back.Mode != cfg.Mode ||
		back.Network.Router.Switching != cfg.Network.Router.Switching ||
		back.Node.Hierarchy.Coherence != cfg.Node.Hierarchy.Coherence {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// The machine must build from the decoded config.
	if _, err := New(back); err != nil {
		t.Fatal(err)
	}
}

func TestParseConfigRejectsUnknownFields(t *testing.T) {
	if _, err := ParseConfig([]byte(`{"Mode":"detailed","Nodes":1,"Bogus":1}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
	// The engine selector is gone with the engines it selected: a v2 file
	// naming one is refused, not silently run on the one engine left.
	valid, err := json.Marshal(T805GridTaskLevel(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	withEngine := append(valid[:len(valid)-1:len(valid)-1], `,"engine":"process"}`...)
	if _, err := ParseConfig(withEngine); err == nil || !strings.Contains(err.Error(), `unknown field "engine"`) {
		t.Errorf("config with an engine selector: err = %v, want an unknown-field error", err)
	}
}

func TestParseConfigRejectsTrailingGarbage(t *testing.T) {
	valid, err := json.Marshal(PPC601Machine())
	if err != nil {
		t.Fatal(err)
	}
	for _, trailer := range []string{"garbage", "{}", `{"Mode":"task"}`, "[1,2]"} {
		if _, err := ParseConfig(append(append([]byte{}, valid...), trailer...)); err == nil {
			t.Errorf("config followed by %q parsed without error", trailer)
		}
	}
	// Trailing whitespace stays legal.
	if _, err := ParseConfig(append(append([]byte{}, valid...), " \n\t"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestSharedMemoryMachineNoNetwork(t *testing.T) {
	m, err := New(PPC601SMP(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Network() != nil {
		t.Fatal("single-node machine should have no network")
	}
	srcs := []trace.Source{
		trace.FromOps([]ops.Op{ops.NewStore(ops.MemWord, 0x100)}),
		trace.FromOps([]ops.Op{
			ops.NewArith(ops.Add, ops.TypeInt),
			ops.NewLoad(ops.MemWord, 0x100),
		}),
	}
	res, err := m.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 3 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

func TestCorruptTraceFileSurfacesError(t *testing.T) {
	m, _ := New(PPC601Machine())
	// A reader over garbage bytes: the node must stop with a trace error.
	srcs := []trace.Source{trace.FromReader(strings.NewReader("garbage-not-a-trace"))}
	if _, err := m.Run(srcs); err == nil {
		t.Fatal("expected error for corrupt trace")
	}
}

func TestDSMConfigJSONRoundTrip(t *testing.T) {
	cfg := DSMCluster(2, 2)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.DSM == nil || back.DSM.PageSize != cfg.DSM.PageSize {
		t.Fatalf("DSM config lost in round trip: %+v", back.DSM)
	}
	if _, err := New(back); err != nil {
		t.Fatal(err)
	}
}

func TestT805PingPongCalibrationBallpark(t *testing.T) {
	// Published transputer figures put small-message neighbour latency in
	// the low microseconds; the calibrated model must land in that decade.
	m, err := New(T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []trace.Source{
		trace.FromOps([]ops.Op{ops.NewSend(1, 1, 0), ops.NewRecv(1, 1)}),
		trace.FromOps([]ops.Op{ops.NewRecv(0, 0), ops.NewSend(1, 0, 1)}),
	}
	res, err := m.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip in microseconds at the T805's 30 MHz clock.
	us := float64(res.Cycles) / 30.0
	if us < 1 || us > 50 {
		t.Fatalf("1-byte round trip = %.1f us, want low-microsecond ballpark", us)
	}
}

// Property: any (seed, topology, switching, pattern) draw simulates to the
// same cycle count on repeated runs — full-machine determinism, the
// foundation of the trace-validity guarantees.
func TestFullMachineDeterminismProperty(t *testing.T) {
	topos := []topology.Config{
		{Kind: topology.Ring, Nodes: 8},
		{Kind: topology.Mesh2D, DimX: 4, DimY: 2},
		{Kind: topology.Torus2D, DimX: 2, DimY: 4},
		{Kind: topology.Hypercube, Nodes: 8},
	}
	sws := []router.Switching{router.StoreAndForward, router.VirtualCutThrough, router.Wormhole}
	pats := []stochastic.PatternKind{stochastic.NearestNeighbor, stochastic.Exchange, stochastic.RandomPairs, stochastic.Hotspot}
	f := func(seed uint64, t8, s8, p8 uint8) bool {
		cfg := GenericTaskMachine(topos[int(t8)%len(topos)], 8, sws[int(s8)%len(sws)])
		cfg.Seed = seed
		desc := stochastic.Desc{
			Nodes: 8, Level: stochastic.TaskLevel, Seed: seed, Iterations: 2,
			Phases: []stochastic.Phase{{
				Duration: 500, CV: 0.3,
				Comm: stochastic.Comm{Pattern: pats[int(p8)%len(pats)], Bytes: 512, Jitter: true},
			}},
		}
		run := func() pearl.Time {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.RunStochastic(desc)
			if err != nil {
				t.Fatal(err)
			}
			return res.Cycles
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// And the same for a detailed machine driven by an execution-driven
// (goroutine-threaded) program: host scheduling must never leak into
// simulated time.
func TestDetailedExecutionDrivenDeterminism(t *testing.T) {
	run := func() pearl.Time {
		m, err := New(T805Grid(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunProgram(workload.Jacobi1D(4, 128, 4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %d cycles, first run %d", i, got, first)
		}
	}
}
