package machine

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mermaid/internal/analysis"
	"mermaid/internal/fault"
	"mermaid/internal/pearl"
	"mermaid/internal/sim"
	"mermaid/internal/stats"
	"mermaid/internal/stochastic"
	"mermaid/internal/workload"
)

// buildPlain builds cfg with no observer attached: a sampler needs none.
func buildPlain(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sampleLog is a sampler consumer that keeps every report it is handed.
type sampleLog struct {
	at      []pearl.Time
	reports []*stats.Set
}

func (l *sampleLog) add(t analysis.Tick) {
	l.at = append(l.at, t.At)
	l.reports = append(l.reports, t.Report())
}

// series returns the value of the metric at path in every logged report
// that has it.
func (l *sampleLog) series(path string) []float64 {
	var vs []float64
	for _, r := range l.reports {
		for _, m := range stats.Flatten(r) {
			if m.Name == path {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// startSampler arms m's sampling chain with a full log and a CSV history
// plus any further consumers.
func startSampler(t *testing.T, m *Machine, every pearl.Time, more ...func(analysis.Tick)) (*sampleLog, *stats.History, func(*Result)) {
	t.Helper()
	log, h := new(sampleLog), new(stats.History)
	consumers := append([]func(analysis.Tick){log.add, func(tk analysis.Tick) { h.Add(int64(tk.At), tk.Report()) }}, more...)
	finish, err := m.StartSampler(every, consumers...)
	if err != nil {
		t.Fatal(err)
	}
	return log, h, finish
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
	m := buildPlain(t, T805GridTaskLevel(2, 2))
	log, _, finish := startSampler(t, m, 5000)
	res, err := m.RunStochastic(neighbourDesc(10, 10000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	finish(res)
	if len(log.at) < 5 {
		t.Fatalf("only %d samples over %d cycles", len(log.at), res.Cycles)
	}
	// Cumulative series must be non-decreasing.
	messages := log.series("network mesh(2x2)/messages")
	if len(messages) != len(log.at) {
		t.Fatalf("%d of %d samples carry the network's messages", len(messages), len(log.at))
	}
	if !slices.IsSorted(messages) {
		t.Fatalf("message count series decreased: %v", messages)
	}
	// Sampling never keeps the simulation alive: the series ends with the
	// run, not at the next multiple of the interval.
	if last := log.at[len(log.at)-1]; last != res.Cycles {
		t.Fatalf("last sample at %d, simulation ended at %d", last, res.Cycles)
	}
}

// A run shorter than one sampling interval must still end with a sample:
// the end-of-run report is handed out after the run, so the final interval
// of every run — and the whole of a short run — appears in the series and
// the CSV instead of being dropped.
func TestMonitorFinalSample(t *testing.T) {
	m := buildPlain(t, T805GridTaskLevel(2, 2))
	log, h, finish := startSampler(t, m, 1_000_000) // far beyond the run length
	res, err := m.RunStochastic(neighbourDesc(1, 100, 64))
	if err != nil {
		t.Fatal(err)
	}
	finish(res)
	events := log.series("events")
	if len(events) != 1 {
		t.Fatalf("short run recorded %d samples, want exactly the end-of-run one", len(events))
	}
	if events[0] != float64(res.Events) {
		t.Errorf("final sample saw %v events, run had %d", events[0], res.Events)
	}
	if rows := csvRows(t, h); len(rows) != 2 || rows[1][0] != strconv.FormatInt(int64(res.Cycles), 10) {
		t.Errorf("short run's CSV = %v, want a header and one row at cycle %d", rows, res.Cycles)
	}
}

func TestMonitorDetailedMode(t *testing.T) {
	m := buildPlain(t, T805Grid(2, 1))
	log, _, finish := startSampler(t, m, 500)
	res, err := m.RunProgram(workload.PingPong(20, 2048))
	if err != nil {
		t.Fatal(err)
	}
	finish(res)
	bus := log.series("node0/memory-hierarchy/bus/utilization")
	if len(bus) == 0 {
		t.Fatal("no bus utilisation samples in detailed mode")
	}
	if slices.Max(bus) <= 0 {
		t.Error("bus utilisation never rose above zero")
	}
}

func TestMonitorValidation(t *testing.T) {
	m := buildPlain(t, T805Grid(2, 1))
	consumer := func(analysis.Tick) {}
	if _, err := m.StartSampler(0, consumer); err == nil {
		t.Fatal("expected error for zero interval")
	}
	if _, err := m.StartSampler(100, consumer, nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil consumer: err = %v, want a refusal", err)
	}
	// Nothing to sample arms nothing and leaves the machine free for the
	// run's real chain.
	if _, err := m.StartSampler(100); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartSampler(100, consumer); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartSampler(100, consumer); err == nil {
		t.Fatal("expected error for a second sampling chain on one run")
	}
	sharded := GenericTaskMachine(T805GridTaskLevel(2, 2).Network.Topology, 4, 0)
	sharded.Shards = 2
	if sm, err := New(sharded); err == nil {
		// The CLI asks every run for a chain; with no observer a sharded
		// run must still go ahead.
		if _, err := sm.StartSampler(100); err != nil {
			t.Errorf("no consumer on shards: %v", err)
		}
		if _, err := sm.StartSampler(100, consumer); err == nil || !strings.Contains(err.Error(), "shards 0") {
			t.Errorf("sampler on shards: err = %v, want a refusal naming the single kernel", err)
		}
	} else {
		t.Fatal(err)
	}
}

func csvRows(t *testing.T, h *stats.History) [][]string {
	t.Helper()
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not re-parse: %v\n%s", err, sb.String())
	}
	return rows
}

func TestMonitorCSV(t *testing.T) {
	m := buildPlain(t, T805GridTaskLevel(2, 2))
	_, h, finish := startSampler(t, m, 5000)
	res, err := m.RunStochastic(neighbourDesc(5, 10000, 1024))
	if err != nil {
		t.Fatal(err)
	}
	finish(res)
	rows := csvRows(t, h)
	if len(rows) < 3 {
		t.Fatalf("csv too short: %v", rows)
	}
	if !slices.Equal(rows[0][:4], []string{"cycle", "cycles", "events", "instructions"}) {
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

// A run that ends in the cycle of a tick must not leave two rows for that
// cycle: the end-of-run report — taken after the instant's remaining
// events — replaces the tick's.
func TestSamplerEndOfRunReplacesSameCycleTick(t *testing.T) {
	run := func(m *Machine) *Result {
		res, err := m.RunStochastic(neighbourDesc(2, 1000, 256))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(buildPlain(t, T805GridTaskLevel(2, 2)))
	m := buildPlain(t, T805GridTaskLevel(2, 2))
	log, h, finish := startSampler(t, m, plain.Cycles) // one tick, at the run's last cycle
	res := run(m)
	finish(res)
	if res.Events != plain.Events+1 || len(log.at) != 2 || log.at[0] != res.Cycles {
		t.Fatalf("samples at %v, %d events against %d unsampled; want one tick at the end cycle %d", log.at, res.Events, plain.Events, res.Cycles)
	}
	rows := csvRows(t, h)
	if len(rows) != 2 || rows[1][0] != strconv.FormatInt(int64(res.Cycles), 10) || rows[1][2] != strconv.FormatUint(res.Events, 10) {
		t.Errorf("CSV = %q, want one row at cycle %d with the run's %d events", rows, res.Cycles, res.Events)
	}
}

// TestSampleIsTheReport: the sampler hands out the run's report. Its last
// sample renders byte for byte as Result.Stats; every earlier sample's paths
// are among the last one's, and no counter decreases from one sample to
// the next.
func TestSampleIsTheReport(t *testing.T) {
	for _, c := range reportCases() {
		_, plain := runReport(t, c, sim.NewEnv(c.cfg.Seed, nil))
		m := buildPlain(t, c.cfg)
		log, _, finish := startSampler(t, m, plain.Cycles/8) // eight ticks
		res, err := c.run(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		finish(res)
		if len(log.reports) != 9 {
			t.Fatalf("%s: %d samples, want eight ticks and the end of the run", c.name, len(log.reports))
		}
		last := log.reports[len(log.reports)-1]
		if got, want := renderStats(t, last), renderStats(t, res.Stats); got != want {
			t.Errorf("%s: the last sample differs from the report\n--- report ---\n%s\n--- sample ---\n%s", c.name, want, got)
		}
		final := map[string]bool{}
		for _, mt := range stats.Flatten(last) {
			final[mt.Name] = true
		}
		prev := map[string]float64{}
		for i, r := range log.reports {
			for _, mt := range stats.Flatten(r) {
				if !final[mt.Name] {
					t.Errorf("%s: sample %d at %d has %q, which the report lacks", c.name, i, log.at[i], mt.Name)
				}
				if counter(mt) && mt.Value < prev[mt.Name] {
					t.Errorf("%s: %q fell from %v to %v at sample %d", c.name, mt.Name, prev[mt.Name], mt.Value, i)
				}
				prev[mt.Name] = mt.Value
			}
		}
	}
}

// counter reports whether a report metric only ever grows during a run: a
// count or an accumulated time, not a mean, ratio, utilisation or maximum.
func counter(m stats.Metric) bool {
	for _, w := range []string{"ratio", "utilization", "mean", "avg", "max", "per cycle", "channels"} {
		if strings.Contains(m.Name, w) {
			return false
		}
	}
	return true
}

// flatten lists every metric of the stats tree as "path = value unit",
// minus the report's event count, the one thing an observer may change.
func flatten(s *stats.Set) []string {
	var out []string
	for _, mt := range stats.Flatten(s) {
		if mt.Name != "events" {
			out = append(out, fmt.Sprintf("%s = %v %s", mt.Name, mt.Value, mt.Unit))
		}
	}
	return out
}

// DESIGN §11: observation never perturbs results. Sampling a run — at a short
// interval, at one longer than the run, or with several consumers on the
// chain — leaves the simulated time and every statistic where the unobserved
// run has them; the kernel's event count grows by exactly the ticks fired.
func TestSamplingDoesNotPerturb(t *testing.T) {
	torus, err := TaskMachineFromSpec("torus:8x8")
	if err != nil {
		t.Fatal(err)
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
		{"torus:8x8", torus, exchange},
		{"t805-2x2 faulted", faulted, jacobi},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// observed runs tc with a sampler at every (0 = none) carrying
			// `consumers` counting consumers besides the history.
			observed := func(every pearl.Time, consumers int) (res *Result, metrics []string, calls int) {
				m := buildPlain(t, tc.cfg)
				finish := func(*Result) {}
				var h *stats.History
				if every > 0 {
					more := make([]func(analysis.Tick), consumers)
					for i := range more {
						more[i] = func(analysis.Tick) { calls++ }
					}
					_, h, finish = startSampler(t, m, every, more...)
				}
				res, err := tc.run(m)
				if err != nil {
					t.Fatal(err)
				}
				finish(res)
				metrics = flatten(res.Stats)
				if every > 0 {
					rows := csvRows(t, h)
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
