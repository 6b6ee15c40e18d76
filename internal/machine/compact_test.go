package machine

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/router"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/topology"
	"mermaid/internal/trace"
)

// ledgerReading formats what Machine.Network() answers about a run beyond
// the report — the message latency distribution — so that engines can be
// compared through the ledger as well as the report.
func ledgerReading(t *testing.T, m *Machine) string {
	t.Helper()
	net := m.Network()
	if net == nil {
		t.Fatal("Machine.Network() is nil on a networked machine")
	}
	lat := net.MessageLatency()
	return fmt.Sprintf("latency mean %v max %d, %d messages delivered", lat.Mean(), lat.Max(), lat.Count())
}

// observedEnv is the environment of a fully instrumented single-kernel run:
// a probe with a timeline, and the bottleneck collector.
func observedEnv(seed uint64) sim.Env {
	return sim.NewEnv(seed, probe.New(probe.Config{Timeline: true})).WithCollector(analysis.New())
}

// runEngineReport builds cfg on the single-kernel network, fully observed or
// with no probe, and runs the case's streams, returning the rendered stats
// report and the ledger reading. The run must conserve its traffic.
func runEngineReport(t *testing.T, cfg Config, observed bool, s streams) (string, string) {
	t.Helper()
	env := sim.NewEnv(cfg.Seed, nil)
	if observed {
		env = observedEnv(cfg.Seed)
	}
	label := fmt.Sprintf("observed=%v", observed)
	m, err := Build(env, cfg)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	res, syncSends, err := runCounted(m, s)
	if err != nil {
		t.Fatalf("%s: run: %v", label, err)
	}
	if observed && (res.Analysis == nil || m.MergedTimeline().Events() == 0) {
		t.Fatalf("%s: no bottleneck report or an empty timeline", label)
	}
	checkConservation(t, label, m, res, syncSends)
	var report bytes.Buffer
	if err := stats.RenderSet(&report, res.Stats); err != nil {
		t.Fatalf("%s: render: %v", label, err)
	}
	return report.String(), ledgerReading(t, m)
}

// checkEngineIdentity requires the single-kernel network — packets and
// processors as events — to produce byte-identical reports for the same
// machine and workload whether or not the timeline and the bottleneck
// collector observe it: instrumentation rides along, it never moves an
// event. TestTrafficDigests pins both runs' artifacts.
func checkEngineIdentity(t *testing.T, cfg Config, s streams) {
	t.Helper()
	ref, refLedger := runEngineReport(t, cfg, false, s)
	if !strings.Contains(ref, "messages") {
		t.Fatalf("reference report looks empty:\n%s", ref)
	}
	got, gotLedger := runEngineReport(t, cfg, true, s)
	if got != ref {
		t.Errorf("observed report differs from the unobserved one\n--- unobserved ---\n%s\n--- observed ---\n%s", ref, got)
	}
	if gotLedger != refLedger {
		t.Errorf("observed ledger differs from the unobserved one\nunobserved: %s\nobserved: %s", refLedger, gotLedger)
	}
}

// streams produces a run's trace streams for m, afresh for every run, and
// the cleanup an aborted run needs (nil when there is none).
type streams func(m *Machine) ([]trace.Source, func(), error)

// stochasticStreams is what RunStochastic runs for desc, checked alike.
func stochasticStreams(desc stochastic.Desc) streams {
	return func(m *Machine) ([]trace.Source, func(), error) {
		srcs, err := m.stochasticSources(desc)
		return srcs, nil, err
	}
}

// programStreams is what RunProgram runs for the program prog builds,
// checked alike.
func programStreams(prog func() *trace.Program) streams {
	return func(m *Machine) ([]trace.Source, func(), error) {
		p := prog()
		srcs, err := m.programSources(p)
		return srcs, p.Close, err
	}
}

// opStreams replays one hand-written operation list per node; Run checks
// their count.
func opStreams(traces ...[]ops.Op) streams {
	return func(*Machine) ([]trace.Source, func(), error) {
		srcs := make([]trace.Source, len(traces))
		for i, tr := range traces {
			srcs[i] = trace.FromOps(tr)
		}
		return srcs, nil, nil
	}
}

// runCounted runs m on fresh streams from s, counting the synchronous sends
// the streams issue. Shards pull their streams concurrently, hence the atomic.
func runCounted(m *Machine, s streams) (*Result, int64, error) {
	srcs, cleanup, err := s(m)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return nil, 0, err
	}
	var syncSends atomic.Int64
	for i, src := range srcs {
		srcs[i] = sendCounter{src, &syncSends}
	}
	res, err := m.Run(srcs)
	return res, syncSends.Load(), err
}

// sendCounter passes its source's batches through, counting the synchronous
// sends in them.
type sendCounter struct {
	src trace.Source
	n   *atomic.Int64
}

func (c sendCounter) NextBatch() ([]ops.Op, trace.Global, error) {
	b, g, err := c.src.NextBatch()
	for i := range b {
		if b[i].Kind == ops.Send {
			c.n.Add(1)
		}
	}
	return b, g, err
}

// checkConservation asserts what a completed run conserves on whichever
// engine ran it, as its report tells: every message injected was delivered,
// and was sent once and received once by the interfaces (Σ nifN sends,
// Σ nifN recvs); every synchronous send was acknowledged once (the network
// set's sync acks).
func checkConservation(t *testing.T, label string, m *Machine, res *Result, syncSends int64) {
	t.Helper()
	var sends, recvs float64
	var walk func(s *stats.Set)
	walk = func(s *stats.Set) {
		if strings.HasPrefix(s.Name, "nif") {
			v, _ := s.Get("sends")
			sends += v
			v, _ = s.Get("recvs")
			recvs += v
		}
		for _, sub := range s.Subsets {
			walk(sub)
		}
	}
	walk(res.Stats)
	net := res.Stats.Prefixed("network ")
	acks, _ := net.Get("sync acks")
	msgs, _ := net.Get("messages")
	delivered := m.Network().MessageLatency().Count()
	if float64(delivered) != msgs || msgs != sends || msgs != recvs {
		t.Errorf("%s: %v messages, %d delivered, %v sent, %v received: traffic not conserved",
			label, msgs, delivered, sends, recvs)
	}
	if acks != float64(syncSends) {
		t.Errorf("%s: %v rendezvous acks for %d synchronous sends", label, acks, syncSends)
	}
}

func taskDesc(nodes int, seed uint64, phases ...stochastic.Phase) streams {
	return stochasticStreams(stochastic.Desc{
		Name: "engine-identity", Nodes: nodes, Level: stochastic.TaskLevel,
		Seed: seed, Iterations: 6, Phases: phases,
	})
}

// matchingStreams is a hand-written 4-node task trace for the matching corners
// generated traces never reach — they always name a receive's source and post
// it in rendezvous order. Node 0 is the hub:
//   - tag 1: receives from ops.AnyPeer that nodes 1 and 2 race to at the same
//     instant (both one hop away, same size);
//   - tag 2: node 3's message arrives long before node 0 posts its receive;
//   - tags 3 and 4: an arecv posted after its message arrived (handle 10,
//     whose WaitRecv then finds it complete) and one posted before (handle
//     11, whose WaitRecv blocks);
//   - tag 5: AnyPeer receives raced by a synchronous and an asynchronous send
//     arriving at different times;
//   - tag 6: node 1's synchronous send to node 3, which receives it late;
//   - tags 7 and 8: node 2's self-sends, asynchronous into a later receive and
//     synchronous into an arecv posted first;
//   - tag 9: two AnyPeer arecvs, waited for in the opposite order;
//   - tag 10: messages from nodes 3 and then 1 queue before an AnyPeer
//     receive, which must take node 3's (the oldest arrival) for the
//     receive from node 1 after it to complete;
//   - tag 11: an AnyPeer arecv posted before one from node 3, so node 3's
//     first message must match the AnyPeer one (the oldest posted receive),
//     node 1's must queue for a later receive, and node 3's second must
//     match the other.
//
// Either matching rule taken the other way round deadlocks the run.
func matchingStreams() streams {
	anyPeer := ops.AnyPeer
	arecv := func(src int32, tag uint32, handle uint64) ops.Op {
		o := ops.NewARecv(src, tag)
		o.Addr = handle
		return o
	}
	return opStreams(
		[]ops.Op{
			ops.NewRecv(anyPeer, 1), ops.NewRecv(anyPeer, 1),
			ops.NewCompute(20_000),
			ops.NewRecv(3, 2),
			arecv(1, 3, 10), arecv(2, 4, 11),
			ops.NewWaitRecv(10), ops.NewWaitRecv(11),
			ops.NewRecv(anyPeer, 5), ops.NewRecv(anyPeer, 5),
			arecv(anyPeer, 9, 12), arecv(anyPeer, 9, 13),
			ops.NewWaitRecv(13), ops.NewWaitRecv(12),
			arecv(anyPeer, 11, 16), arecv(3, 11, 17),
			ops.NewCompute(12_000),
			ops.NewRecv(anyPeer, 10), ops.NewRecv(1, 10),
			ops.NewWaitRecv(16), ops.NewWaitRecv(17), ops.NewRecv(1, 11),
		},
		[]ops.Op{
			ops.NewCompute(100), ops.NewASend(64, 0, 1), ops.NewASend(128, 0, 3),
			ops.NewSend(256, 3, 6),
			ops.NewCompute(500), ops.NewASend(32, 0, 5),
			ops.NewASend(8, 0, 9),
			ops.NewCompute(3000), ops.NewASend(8, 0, 10),
			ops.NewCompute(3000), ops.NewASend(8, 0, 11),
		},
		[]ops.Op{
			ops.NewCompute(100), ops.NewASend(64, 0, 1),
			ops.NewASend(16, 2, 7), ops.NewRecv(2, 7),
			arecv(2, 8, 20), ops.NewSend(48, 2, 8), ops.NewWaitRecv(20),
			ops.NewCompute(30_000), ops.NewASend(512, 0, 4),
		},
		[]ops.Op{
			ops.NewASend(200, 0, 2),
			ops.NewCompute(40_000), ops.NewRecv(1, 6),
			ops.NewSend(64, 0, 5),
			ops.NewASend(8, 0, 9),
			ops.NewASend(8, 0, 10),
			ops.NewCompute(3000), ops.NewASend(8, 0, 11),
			ops.NewCompute(6000), ops.NewASend(8, 0, 11),
		},
	)
}

// engineCase is one machine and workload the single-kernel network must run
// alike observed and unobserved.
type engineCase struct {
	name    string
	cfg     Config
	streams streams
}

// engineCases returns the engine-identity corners: every switching strategy,
// every routing strategy, the hierarchical topologies and fault recovery.
func engineCases() []engineCase {
	// Store-and-forward, synchronous rendezvous traffic with load imbalance
	// and size jitter — the transputer-style machine.
	saf := T805GridTaskLevel(4, 4)
	saf.Seed = 42
	// Virtual cut-through with Valiant routing: the random intermediate
	// draws must land in the pinned RNG-stream order.
	valiant := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.VirtualCutThrough)
	valiant.Network.Router.Routing = router.Valiant
	valiant.Seed = 7
	// Wormhole switching on a 3-D torus: multi-channel worms, dateline
	// virtual-channel switching and async (arecv/waitrecv) completion.
	worm := GenericTaskMachine(topology.Config{Kind: topology.Torus3D, DimX: 3, DimY: 3, DimZ: 3}, 27, router.Wormhole)
	worm.Seed = 5
	// Adaptive routing on a fat-tree: port choice depends on instantaneous
	// channel load, so any event-order divergence shows up as a different
	// path mix. 16 hosts plus 4+4 switches: fat-tree switches are
	// addressable nodes.
	adaptive := GenericTaskMachine(topology.Config{Kind: topology.FatTree, Arity: 4, Levels: 2}, 24, router.VirtualCutThrough)
	adaptive.Network.Router.Routing = router.Adaptive
	adaptive.Seed = 13
	dragonfly := GenericTaskMachine(topology.Config{Kind: topology.Dragonfly, Routers: 2, Globals: 2, Groups: 5}, 10, router.Wormhole)
	dragonfly.Seed = 23
	// Link down-windows, packet noise and retransmission: the lazy re-path
	// table, per-hop fate draws and backoff timers must fire identically.
	faulted := T805GridTaskLevel(3, 3)
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 5_000, To: 400_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{
			Timeout:    300,
			Backoff:    2,
			MaxRetries: 12,
		},
	}
	// Wormhole worms under faults: a 4x4 torus with datelines, a link
	// down-window, drop noise and retransmission, so failed attempts release
	// partially built worms and the re-path table steers worms around the
	// dead link.
	wormFaulted := GenericTaskMachine(topology.Config{Kind: topology.Torus2D, DimX: 4, DimY: 4}, 16, router.Wormhole)
	wormFaulted.Seed = 61
	wormFaulted.Faults = &fault.Schedule{
		Links: []fault.LinkFault{{A: 5, B: 6, Window: fault.Window{From: 3_000, To: 60_000}}},
		Noise: []fault.LinkNoise{{A: -1, B: -1, Drop: 0.02}},
		Retrans: fault.Retrans{
			Timeout:    400,
			Backoff:    2,
			MaxRetries: 12,
		},
	}
	// The matching corners, with the overheads of the transputer machine and
	// with none (every interface call then completes or parks in place).
	matching := T805GridTaskLevel(2, 2)
	matching.Seed = 3
	free := matching
	free.Network.SendOverhead, free.Network.RecvOverhead = 0, 0
	return []engineCase{
		{"SAF", saf, taskDesc(16, 11, stochastic.Phase{
			Duration: 2500, CV: 0.4,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
		})},
		{"VCTValiant", valiant, taskDesc(16, 3, stochastic.Phase{
			Duration: 1200, CV: 0.2,
			Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 2048},
		})},
		{"WormholeTorus3D", worm, taskDesc(27, 9, stochastic.Phase{
			Duration: 2000, CV: 0.3,
			Comm: stochastic.Comm{Pattern: stochastic.Exchange, Bytes: 512, Async: true},
		}, stochastic.Phase{
			Duration: 800,
			Comm:     stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 128},
		})},
		{"AdaptiveFatTree", adaptive, taskDesc(24, 21, stochastic.Phase{
			Duration: 900, CV: 0.5,
			Comm: stochastic.Comm{Pattern: stochastic.Hotspot, Bytes: 4096, Jitter: true},
		})},
		{"Dragonfly", dragonfly, taskDesc(10, 31, stochastic.Phase{
			Duration: 1500, CV: 0.3,
			Comm: stochastic.Comm{Pattern: stochastic.AllToAll, Bytes: 768},
		})},
		{"UnderFaults", faulted, taskDesc(9, 17, stochastic.Phase{
			Duration: 2000, CV: 0.4,
			Comm: stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: 1024, Jitter: true},
		})},
		{"WormholeUnderFaults", wormFaulted, taskDesc(16, 41, stochastic.Phase{
			Duration: 1500, CV: 0.3,
			Comm: stochastic.Comm{Pattern: stochastic.RandomPairs, Bytes: 3072, Jitter: true},
		})},
		{"Matching", matching, matchingStreams()},
		{"MatchingNoOverhead", free, matchingStreams()},
	}
}

// checkEngineCase runs the named engineCases entry through checkEngineIdentity.
func checkEngineCase(t *testing.T, name string) {
	t.Helper()
	for _, c := range engineCases() {
		if c.name == name {
			checkEngineIdentity(t, c.cfg, c.streams)
			return
		}
	}
	t.Fatalf("no engine case %q", name)
}

func TestCompactEngineByteIdenticalSAF(t *testing.T) {
	checkEngineCase(t, "SAF")
}

func TestCompactEngineByteIdenticalVCTValiant(t *testing.T) {
	checkEngineCase(t, "VCTValiant")
}

func TestCompactEngineByteIdenticalWormholeTorus3D(t *testing.T) {
	checkEngineCase(t, "WormholeTorus3D")
}

func TestCompactEngineByteIdenticalAdaptiveFatTree(t *testing.T) {
	checkEngineCase(t, "AdaptiveFatTree")
}

func TestCompactEngineByteIdenticalDragonfly(t *testing.T) {
	checkEngineCase(t, "Dragonfly")
}

func TestCompactEngineByteIdenticalUnderFaults(t *testing.T) {
	checkEngineCase(t, "UnderFaults")
}

func TestCompactEngineByteIdenticalWormholeUnderFaults(t *testing.T) {
	checkEngineCase(t, "WormholeUnderFaults")
}

func TestCompactEngineByteIdenticalMatching(t *testing.T) {
	checkEngineCase(t, "Matching")
	checkEngineCase(t, "MatchingNoOverhead")
}

// A send to a node the network does not have is an error of the run, worded
// the same on both fabrics and naming the sender — not a panic.
func TestInvalidDestinationIsAnError(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := T805GridTaskLevel(2, 2)
		cfg.Shards = shards
		m, err := Build(sim.Env{Kernel: pearl.NewKernel(), RNG: pearl.NewRNG(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]trace.Source, 4)
		for i := range srcs {
			srcs[i] = trace.FromOps(nil)
		}
		srcs[2] = trace.FromOps([]ops.Op{ops.NewCompute(10), ops.NewASend(64, 7, 0)})
		_, err = m.Run(srcs)
		want := "node 2 cpu 0 (rank 2): send to invalid destination 7 (the network has 4 nodes)"
		if err == nil || err.Error() != want {
			t.Errorf("shards=%d: err = %v, want %q", shards, err, want)
		}
	}
}
