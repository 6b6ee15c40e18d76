package machine

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/probe"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/workload"
)

// buildProbed builds cfg with a metric registry attached: what every observer
// of a run reads.
func buildProbed(t *testing.T, cfg Config) (*Machine, *probe.Registry) {
	t.Helper()
	pb := probe.New(probe.Config{})
	m, err := Build(sim.NewEnv(cfg.Seed, pb), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, pb.Registry()
}

// startSampler arms the run's sampling chain with a full history (reg.Sample)
// plus any further consumers.
func startSampler(t *testing.T, m *Machine, reg *probe.Registry, every pearl.Time, more ...func(pearl.Time)) func(pearl.Time) {
	t.Helper()
	finish, err := reg.StartSampler(m.Kernel(), every, append([]func(pearl.Time){reg.Sample}, more...)...)
	if err != nil {
		t.Fatal(err)
	}
	return finish
}

func neighbourDesc(iterations int, duration int64, bytes uint32) stochastic.Desc {
	return stochastic.Desc{
		Level: stochastic.TaskLevel, Seed: 7, Iterations: iterations,
		Phases: []stochastic.Phase{{
			Duration: duration,
			Comm:     stochastic.Comm{Pattern: stochastic.NearestNeighbor, Bytes: bytes},
		}},
	}
}

func TestMonitorSamples(t *testing.T) {
	m, reg := buildProbed(t, T805GridTaskLevel(2, 2))
	finish := startSampler(t, m, reg, 5000)
	res, err := m.RunStochastic(neighbourDesc(10, 10000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	finish(res.Cycles)
	events, messages := &reg.Lookup("kernel.events").Series, &reg.Lookup("net.messages").Series
	if events.Len() < 5 {
		t.Fatalf("only %d samples over %d cycles", events.Len(), res.Cycles)
	}
	// Cumulative series must be non-decreasing.
	for i := 1; i < messages.Len(); i++ {
		if messages.V[i] < messages.V[i-1] {
			t.Fatal("message count series decreased")
		}
	}
	// Sampling never keeps the simulation alive: the series ends with the
	// run, not at the next multiple of the interval.
	if last := events.T[events.Len()-1]; last != int64(res.Cycles) {
		t.Fatalf("last sample at %d, simulation ended at %d", last, res.Cycles)
	}
}

// A run shorter than one sampling interval must still end with a sample:
// the end-of-run state is recorded after the run, so the final interval of
// every run — and the whole of a short run — appears in the series and the
// CSV instead of being dropped.
func TestMonitorFinalSample(t *testing.T) {
	m, reg := buildProbed(t, T805GridTaskLevel(2, 2))
	finish := startSampler(t, m, reg, 1_000_000) // far beyond the run length
	res, err := m.RunStochastic(neighbourDesc(1, 100, 64))
	if err != nil {
		t.Fatal(err)
	}
	finish(res.Cycles)
	events := &reg.Lookup("kernel.events").Series
	if events.Len() != 1 {
		t.Fatalf("short run recorded %d samples, want exactly the end-of-run one", events.Len())
	}
	if got := events.V[0]; got != float64(res.Events) {
		t.Errorf("final sample saw %v events, run had %d", got, res.Events)
	}
	if rows := csvRows(t, reg); len(rows) != 2 || rows[1][0] != strconv.FormatInt(int64(res.Cycles), 10) {
		t.Errorf("short run's CSV = %v, want a header and one row at cycle %d", rows, res.Cycles)
	}
}

func TestMonitorDetailedMode(t *testing.T) {
	m, reg := buildProbed(t, T805Grid(2, 1))
	finish := startSampler(t, m, reg, 500)
	res, err := m.RunProgram(workload.PingPong(20, 2048))
	if err != nil {
		t.Fatal(err)
	}
	finish(res.Cycles)
	bus := reg.Lookup("node0.bus.utilization")
	if bus == nil || bus.Series.Len() == 0 {
		t.Fatal("no bus utilisation samples in detailed mode")
	}
	if _, _, max := bus.Series.Summary(); max <= 0 {
		t.Error("bus utilisation never rose above zero")
	}
}

func TestMonitorValidation(t *testing.T) {
	m, reg := buildProbed(t, T805Grid(2, 1))
	if _, err := reg.StartSampler(m.Kernel(), 0, reg.Sample); err == nil {
		t.Fatal("expected error for zero interval")
	}
	if _, err := reg.StartSampler(m.Kernel(), 100, reg.Sample); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.StartSampler(m.Kernel(), 100, reg.Sample); err == nil {
		t.Fatal("expected error for a second sampling chain on one run")
	}
}

func csvRows(t *testing.T, reg *probe.Registry) [][]string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not re-parse: %v\n%s", err, sb.String())
	}
	return rows
}

func TestMonitorCSV(t *testing.T) {
	m, reg := buildProbed(t, T805GridTaskLevel(2, 2))
	finish := startSampler(t, m, reg, 5000)
	res, err := m.RunStochastic(neighbourDesc(5, 10000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	finish(res.Cycles)
	rows := csvRows(t, reg)
	if len(rows) < 3 {
		t.Fatalf("csv too short: %v", rows)
	}
	if rows[0][0] != "cycle" || rows[0][1] != "kernel.events" {
		t.Fatalf("header = %q", rows[0])
	}
	// One row per instant, the last stamped with the reported simulated time.
	for i := 2; i < len(rows); i++ {
		if rows[i][0] == rows[i-1][0] {
			t.Errorf("rows %d and %d share cycle %s", i-1, i, rows[i][0])
		}
	}
	if last := rows[len(rows)-1][0]; last != strconv.FormatInt(int64(res.Cycles), 10) {
		t.Errorf("last row at cycle %s, run ended at %d", last, res.Cycles)
	}
}

// flatten lists every metric of the stats tree as "path = value unit", minus
// the two event counts, which are the one thing an observer may change.
func flatten(s *stats.Set, prefix string, out *[]string) {
	path := prefix + s.Name
	for _, mt := range s.Metrics {
		if (prefix == "" && mt.Name == "events") || mt.Name == "kernel.events" {
			continue
		}
		*out = append(*out, fmt.Sprintf("%s/%s = %v %s", path, mt.Name, mt.Value, mt.Unit))
	}
	for _, sub := range s.Subsets {
		flatten(sub, path+"/", out)
	}
}

// DESIGN §11: observation never perturbs results. Sampling a run — at a short
// interval, at one longer than the run, or with several consumers on the
// chain — leaves the simulated time and every statistic where the unobserved
// run has them; the kernel's event count grows by exactly the ticks fired.
func TestSamplingDoesNotPerturb(t *testing.T) {
	torus := func(engine string) Config {
		cfg, err := TaskMachineFromSpec("torus:8x8")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = engine
		return cfg
	}
	faulted := T805Grid(2, 2)
	faulted.Seed = 99
	faulted.Faults = &fault.Schedule{ // its injector is a second daemon chain on the same kernel
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 10_000, To: 60_000}}},
		Noise:   []fault.LinkNoise{{A: -1, B: -1, Drop: 0.01}},
		Retrans: fault.Retrans{Timeout: 200, Backoff: 2, MaxRetries: 16},
	}
	jacobi := func(m *Machine) (*Result, error) { return m.RunProgram(workload.Jacobi1D(4, 256, 5)) }
	exchange := func(m *Machine) (*Result, error) { return m.RunStochastic(neighbourDesc(6, 2500, 512)) }
	cases := []struct {
		name string
		cfg  Config
		run  func(*Machine) (*Result, error)
	}{
		{"t805-2x2 jacobi", T805Grid(2, 2), jacobi},
		{"ppc601-smp4", PPC601SMP(4), func(m *Machine) (*Result, error) { return m.RunProgram(workload.SharedCounter(4, 50)) }},
		{"torus:8x8 process", torus(EngineProcess), exchange},
		{"torus:8x8 compact", torus(EngineCompact), exchange},
		{"t805-2x2 faulted", faulted, jacobi},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// observed runs tc with a sampler at every (0 = none) carrying
			// `consumers` counting consumers besides the history.
			observed := func(every pearl.Time, consumers int) (res *Result, metrics []string, calls int) {
				m, reg := buildProbed(t, tc.cfg)
				finish := func(pearl.Time) {}
				if every > 0 {
					more := make([]func(pearl.Time), consumers)
					for i := range more {
						more[i] = func(pearl.Time) { calls++ }
					}
					finish = startSampler(t, m, reg, every, more...)
				}
				res, err := tc.run(m)
				if err != nil {
					t.Fatal(err)
				}
				finish(res.Cycles)
				flatten(res.Stats, "", &metrics)
				if every > 0 {
					rows := csvRows(t, reg)
					if last := rows[len(rows)-1][0]; last != strconv.FormatInt(int64(res.Cycles), 10) {
						t.Errorf("every %d: last CSV row at cycle %s, run ended at %d", every, last, res.Cycles)
					}
				}
				return res, metrics, calls
			}
			plain, want, _ := observed(0, 0)
			for _, every := range []pearl.Time{1000, plain.Cycles + 1} {
				res, got, calls := observed(every, 1)
				ticks := uint64(calls - 1) // every call but the end-of-run one is a tick
				if res.Cycles != plain.Cycles {
					t.Errorf("every %d: %d cycles, unobserved run %d", every, res.Cycles, plain.Cycles)
				}
				if res.Events != plain.Events+ticks {
					t.Errorf("every %d: %d events, want %d + %d ticks", every, res.Events, plain.Events, ticks)
				}
				if wantTicks := uint64(plain.Cycles / every); ticks+1 < wantTicks || ticks > wantTicks {
					t.Errorf("every %d: %d ticks over %d cycles", every, ticks, plain.Cycles)
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("every %d: statistics differ from the unobserved run\n--- unobserved ---\n%s\n--- observed ---\n%s",
						every, strings.Join(want, "\n"), strings.Join(got, "\n"))
				}
			}
			// Consumers share one chain: three cost the events of one.
			one, _, _ := observed(1000, 1)
			three, _, calls := observed(1000, 3)
			if three.Events != one.Events {
				t.Errorf("three consumers: %d events, one consumer %d", three.Events, one.Events)
			}
			if calls%3 != 0 || calls == 0 {
				t.Errorf("three consumers were called %d times in total", calls)
			}
		})
	}
}
