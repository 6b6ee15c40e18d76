package farm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/stochastic"
)

// sweepJobs builds a small cache-size sweep: real simulations, cheap enough
// to run many times under -race.
func sweepJobs(t testing.TB, sizes []int) []Job {
	t.Helper()
	jobs := make([]Job, len(sizes))
	for i, size := range sizes {
		size := size
		jobs[i] = Job{
			Name: fmt.Sprintf("l1=%d", size),
			Run: func(rc *RunContext) (any, error) {
				cfg := machine.PPC601Machine()
				cfg.Node.Hierarchy.Private[0].Size = size
				m, err := machine.New(cfg)
				if err != nil {
					return nil, err
				}
				res, err := m.RunStochastic(stochastic.Desc{
					Name: "probe", Nodes: 1, Level: stochastic.InstructionLevel,
					Seed: 5, Iterations: 1,
					Phases: []stochastic.Phase{{
						Instructions: 2000,
						Mem:          stochastic.MemModel{Base: 0x1000_0000, WorkingSet: 16 << 10},
					}},
				})
				if err != nil {
					return nil, err
				}
				rc.ObserveSim(res.Cycles, res.Events)
				return int64(res.Cycles), nil
			},
		}
	}
	return jobs
}

func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	sizes := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	var want []any
	for _, workers := range []int{1, 2, 8} {
		rep := New(workers).Run(sweepJobs(t, sizes))
		if err := rep.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := rep.Values()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d run %d: cycles %v, want %v (sequential)",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestResultsPreserveSubmissionOrder(t *testing.T) {
	// Jobs that complete out of order (later jobs are much cheaper) must
	// still report in submission order.
	const n = 12
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job%d", i),
			Run: func(rc *RunContext) (any, error) {
				k := pearl.NewKernel()
				work := (n - i) * 500 // front jobs do more events
				for e := 0; e < work; e++ {
					k.At(pearl.Time(e), func() {})
				}
				end := k.Run()
				rc.ObserveSim(end, k.EventCount())
				return i, nil
			},
		}
	}
	rep := New(4).Run(jobs)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.Index != i || r.Value != i {
			t.Errorf("result %d: index=%d value=%v", i, r.Index, r.Value)
		}
		if r.Name != fmt.Sprintf("job%d", i) {
			t.Errorf("result %d: name=%q", i, r.Name)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Name: "ok", Run: func(rc *RunContext) (any, error) { return "fine", nil }},
		{Name: "boom", Run: func(rc *RunContext) (any, error) { panic("simulated model bug") }},
		{Name: "also-ok", Run: func(rc *RunContext) (any, error) { return "fine too", nil }},
	}
	rep := New(2).Run(jobs)
	if rep.Results[0].Err != nil || rep.Results[2].Err != nil {
		t.Fatalf("healthy runs failed: %v / %v", rep.Results[0].Err, rep.Results[2].Err)
	}
	err := rep.Results[1].Err
	if err == nil || !strings.Contains(err.Error(), "simulated model bug") {
		t.Fatalf("panic not captured: %v", err)
	}
	if rep.Err() == nil || rep.Errs() == nil {
		t.Fatal("report must surface the failure")
	}
}

func TestDerivedSeedsDistinctAndStable(t *testing.T) {
	const jobsN, repeats = 3, 4
	collect := func() []uint64 {
		jobs := make([]Job, jobsN)
		for i := range jobs {
			jobs[i] = Job{Name: "seed", Run: func(rc *RunContext) (any, error) {
				return rc.Seed, nil
			}}
		}
		p := New(3)
		p.Repeats = repeats
		rep := p.Run(jobs)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		seeds := make([]uint64, 0, jobsN*repeats)
		for _, r := range rep.Results {
			if r.Seed != r.Value.(uint64) {
				t.Fatalf("result seed %#x disagrees with context seed %#x", r.Seed, r.Value)
			}
			seeds = append(seeds, r.Seed)
		}
		return seeds
	}
	first := collect()
	seen := map[uint64]bool{}
	for _, s := range first {
		if seen[s] {
			t.Fatalf("duplicate derived seed %#x", s)
		}
		seen[s] = true
	}
	second := collect()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("seed %d not reproducible: %#x vs %#x", i, first[i], second[i])
		}
	}
}

// TestSeedsInvariantUnderRepeats pins the (Index, Replica) seed derivation:
// the seed of job i, replica r must not depend on the pool's Repeats setting.
// A batch run once and the same batch run with three replications must agree
// on every replica-0 seed — adding replications to an experiment may only add
// runs, never silently reseed the ones it already had.
func TestSeedsInvariantUnderRepeats(t *testing.T) {
	const jobsN = 4
	collect := func(repeats int) map[[2]int]uint64 {
		jobs := make([]Job, jobsN)
		for i := range jobs {
			jobs[i] = Job{Name: "seed", Run: func(rc *RunContext) (any, error) {
				return rc.Seed, nil
			}}
		}
		p := New(2)
		p.Repeats = repeats
		p.Seed = 1234
		rep := p.Run(jobs)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		seeds := make(map[[2]int]uint64, len(rep.Results))
		for _, r := range rep.Results {
			seeds[[2]int{r.Index, r.Replica}] = r.Seed
		}
		return seeds
	}
	once := collect(1)
	thrice := collect(3)
	for i := 0; i < jobsN; i++ {
		key := [2]int{i, 0}
		if once[key] != thrice[key] {
			t.Fatalf("job %d replica 0: seed %#x with Repeats=1 but %#x with Repeats=3; "+
				"seeds must derive from (Index, Replica), not the linear slot",
				i, once[key], thrice[key])
		}
	}
}

func TestRepeatsOrderingJobMajor(t *testing.T) {
	jobs := []Job{
		{Name: "a", Run: func(rc *RunContext) (any, error) { return nil, nil }},
		{Name: "b", Run: func(rc *RunContext) (any, error) { return nil, nil }},
	}
	p := New(4)
	p.Repeats = 3
	rep := p.Run(jobs)
	want := []struct {
		name    string
		replica int
	}{{"a", 0}, {"a", 1}, {"a", 2}, {"b", 0}, {"b", 1}, {"b", 2}}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(want))
	}
	for i, w := range want {
		r := rep.Results[i]
		if r.Name != w.name || r.Replica != w.replica {
			t.Errorf("result %d = (%s, %d), want (%s, %d)", i, r.Name, r.Replica, w.name, w.replica)
		}
	}
}

func TestSummaryAggregates(t *testing.T) {
	jobs := []Job{
		{Name: "sim", Run: func(rc *RunContext) (any, error) {
			rc.ObserveSim(1000, 42)
			return nil, nil
		}},
		{Name: "fail", Run: func(rc *RunContext) (any, error) {
			return nil, errors.New("no machine")
		}},
	}
	rep := New(2).Run(jobs)
	s := rep.Summary()
	if got, _ := s.Get("runs"); got != 2 {
		t.Errorf("runs = %v", got)
	}
	if got, _ := s.Get("failures"); got != 1 {
		t.Errorf("failures = %v", got)
	}
	if got, _ := s.Get("sim cycles"); got != 1000 {
		t.Errorf("sim cycles = %v", got)
	}
	if got, _ := s.Get("kernel events"); got != 42 {
		t.Errorf("kernel events = %v", got)
	}
	var sb strings.Builder
	if err := rep.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FAILED: no machine") {
		t.Errorf("table missing failure row:\n%s", sb.String())
	}
}

func TestEmptyBatch(t *testing.T) {
	rep := New(4).Run(nil)
	if len(rep.Results) != 0 || rep.Err() != nil || rep.Errs() != nil {
		t.Fatalf("empty batch: %+v", rep)
	}
	rep.Summary() // must not divide by zero
}
