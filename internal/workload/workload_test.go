package workload

import (
	"fmt"
	"testing"

	"mermaid/internal/machine"
)

// messages reads how many messages a run's network carried from its report.
func messages(res *machine.Result) float64 {
	v, _ := res.Stats.Prefixed("network ").Get("messages")
	return v
}

func TestPingPong(t *testing.T) {
	m, err := machine.New(machine.T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(PingPong(10, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if got := messages(res); got != 20 {
		t.Fatalf("messages = %v, want 20", got)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatal("empty run")
	}
}

func TestRingAllreduceNumericallyCorrect(t *testing.T) {
	const nodes, elems = 4, 8
	results := make([]float64, nodes)
	m, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunProgram(RingAllreduce(nodes, elems, results)); err != nil {
		t.Fatal(err)
	}
	// Global sum of rank*elems+i over all ranks and i.
	want := 0.0
	for r := 0; r < nodes; r++ {
		for i := 0; i < elems; i++ {
			want += float64(r*elems + i)
		}
	}
	for r, got := range results {
		if got != want {
			t.Fatalf("rank %d sum = %v, want %v (data really moved through the simulator)", r, got, want)
		}
	}
}

func TestJacobi1D(t *testing.T) {
	m, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(Jacobi1D(4, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	// 3 iterations, interior nodes exchange 2 halos each way.
	if messages(res) == 0 {
		t.Fatal("no halo exchange")
	}
	if res.Cycles == 0 {
		t.Fatal("no time simulated")
	}
}

func TestMatMulMatchesSequential(t *testing.T) {
	const nodes, dim = 2, 8
	var out [][]float64
	m, err := machine.New(machine.T805Grid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunProgram(MatMul(nodes, dim, &out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != dim {
		t.Fatalf("result has %d rows", len(out))
	}
	// Sequential reference: A[i][j] = i+j, B[i][j] = i-j.
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			want := 0.0
			for k := 0; k < dim; k++ {
				want += float64(i+k) * float64(k-j)
			}
			if out[i][j] != want {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, out[i][j], want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		var cfg machine.Config
		if nodes == 2 {
			cfg = machine.T805Grid(2, 1)
		} else {
			cfg = machine.T805Grid(2, 2)
		}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunProgram(Transpose(nodes, 512))
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		want := float64(nodes * (nodes - 1)) // every ordered pair
		if got := messages(res); got != want {
			t.Fatalf("%d nodes: messages = %v, want %v", nodes, got, want)
		}
	}
}

func TestRecvAnyServerOrderDependsOnWork(t *testing.T) {
	var order []int
	m, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunProgram(RecvAnyServer(4, 64, []int{0, 20, 40, 60}, &order)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// Clients compute rank*20 loop iterations before sending, so lower
	// ranks inject earlier; rank 1 must be served before rank 3.
	pos := map[int]int{}
	for i, r := range order {
		pos[r] = i
	}
	if pos[1] > pos[3] {
		t.Fatalf("order = %v: rank 1 should beat rank 3", order)
	}
}

func TestSharedCounterCoherenceTraffic(t *testing.T) {
	m, err := machine.New(machine.PPC601SMP(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(SharedCounter(4, 50))
	if err != nil {
		t.Fatal(err)
	}
	var invals float64
	for cpuIdx := 0; cpuIdx < 4; cpuIdx++ {
		l1 := res.Stats.Lookup("node0", "memory-hierarchy", fmt.Sprintf("node0.cpu%d.L1", cpuIdx))
		v, _ := l1.Get("snoop invalidations")
		invals += v
	}
	if invals == 0 {
		t.Fatal("true sharing produced no invalidations")
	}
}

func TestButterfly(t *testing.T) {
	m, err := machine.New(machine.T805Grid(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunProgram(Butterfly(4, 1024, 8))
	if err != nil {
		t.Fatal(err)
	}
	// log2(4)=2 stages, every node sends once per stage: 8 messages.
	if got := messages(res); got != 8 {
		t.Fatalf("messages = %v, want 8", got)
	}
	if res.Cycles == 0 {
		t.Fatal("no time simulated")
	}
}

func TestButterflyRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Butterfly(6, 64, 1)
}
