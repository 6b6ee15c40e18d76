package main

import (
	"bytes"
	"fmt"
	"time"
)

// defaultSeed is the seed the committed goldens under expected/ belong to.
const defaultSeed = 1

// goldenOps is how many leading operations of a run the golden digest
// covers. Every run executes at least this many, whatever its length.
const goldenOps = 2

// workload is one named set of inputs. Operation counts are fixed per
// second of run length (not open-ended durations), so sample counts,
// simulated counts and digests repeat exactly from run to run.
type workload struct {
	name string
	why  string
	// opsPer10s is how many operations a ten-second run executes on the
	// reference host (2 cores, 2.1 GHz); -seconds scales it linearly.
	opsPer10s int
	newRunner func(w *workload, rc runConfig) runner
}

var workloads = []*workload{
	{
		name:      "detailed-t805",
		why:       "paper's detailed-mode figure: cpu/cache/bus/memory/trace and pearl handoffs do the work, network little",
		opsPer10s: 20,
		newRunner: newRequestRunner,
	},
	{
		name:      "task-mesh64",
		why:       "paper's task-level figure at design-study size: network/router/topology/pearl only; bypasses cpu and cache",
		opsPer10s: 220,
		newRunner: newRequestRunner,
	},
	{
		name:      "task-torus16k",
		why:       "16,384-node torus on the compact engine: footprint, machine build and report rendering dominate",
		opsPer10s: 22,
		newRunner: newRequestRunner,
	},
	{
		name:      "task-sharded",
		why:       "one simulation on two cores: sharded transport and pearl.ShardGroup, the only multi-core single run",
		opsPer10s: 110,
		newRunner: newRequestRunner,
	},
	{
		name:      "service-mix",
		why:       "mermaidd closed loop, 2 clients, half misses half hits: op is a miss, run beside reads of the same cache",
		opsPer10s: 160,
		newRunner: newServiceRunner,
	},
	{
		name:      "sweep-grid",
		why:       "design-space grid through pipeline and farm on all cores: detailed PPC601 runs contending for the collector",
		opsPer10s: 8,
		newRunner: newGridRunner,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds float64
	quick   bool   // two operations per workload, probes at 1 % size
	workDir string // scratch directory inside the checkout
	nproc   int
}

// plannedOps is the operation count of a run of rc.seconds.
func (w *workload) plannedOps(rc runConfig) int {
	if rc.quick {
		return goldenOps
	}
	n := int(float64(w.opsPer10s)*rc.seconds/10 + 0.5)
	if n < goldenOps {
		n = goldenOps
	}
	return n
}

// passResult is what a pass over n operations measured.
type passResult struct {
	attempted int
	failed    int
	failures  []string // first few failure messages
	wall      time.Duration
	// opMS holds the latency of every primary operation (the workload's
	// op_ms_p50 is its median); tracedMS and untracedMS split the same
	// samples by whether the operation recorded spans.
	opMS       []float64
	tracedMS   []float64
	untracedMS []float64

	// outcomes are the simulated results in operation order, where the
	// workload can see them.
	outcomes []outcome
	// digestParts are extra per-operation facts folded into the digest
	// (file hashes of a grid execution, cycles reported by a job).
	digestParts []string

	// extra carries workload-specific measurements by metric name, and
	// samples the sample count behind each.
	extra   map[string]float64
	samples map[string]int
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *passResult) set(name string, v float64, samples int) {
	if p.extra == nil {
		p.extra = map[string]float64{}
		p.samples = map[string]int{}
	}
	p.extra[name] = v
	p.samples[name] = samples
}

// digest is the SHA-256 over the simulated statistics of the first
// goldenOps operations.
func (p *passResult) digest() string {
	n := goldenOps
	var buf bytes.Buffer
	for i := 0; i < n && i < len(p.outcomes); i++ {
		p.outcomes[i].digestInto(&buf)
	}
	for i := 0; i < n && i < len(p.digestParts); i++ {
		buf.WriteString(p.digestParts[i])
		buf.WriteByte('\n')
	}
	return hashHex(buf.Bytes())
}

// runner drives one workload. prepare generates the inputs of n operations
// and starts what must be running; warm performs one untimed warm-up
// operation; pass executes n operations (with a tracer, every second
// operation records spans); verify repeats operation 0 and runs the deep
// checks outside the timed window.
type runner interface {
	prepare(n int) error
	warm() error
	pass(n int, tr *tracer) *passResult
	verify(p *passResult) error
	close()
}

// requestRunner drives the four request workloads and, under the names
// service-direct and grid-direct, the simulations behind the other three.
type requestRunner struct {
	kind   string
	rc     runConfig
	inputs []requestInput
}

func newRequestRunner(w *workload, rc runConfig) runner {
	return &requestRunner{kind: w.name, rc: rc}
}

func (r *requestRunner) prepare(n int) error {
	r.inputs = make([]requestInput, n)
	for i := range r.inputs {
		in, err := makeRequest(r.kind, r.rc.seed, i)
		if err != nil {
			return err
		}
		r.inputs[i] = in
	}
	return nil
}

// warm runs one untimed request. The modelled caches start empty on every
// request (that is how users run); this lets the Go heap and lazy set-up
// settle.
func (r *requestRunner) warm() error {
	warm, err := makeRequest(r.kind, r.rc.seed, -1)
	if err != nil {
		return err
	}
	_, err = runRequest(warm, nil, -1)
	return err
}

func (r *requestRunner) pass(n int, tr *tracer) *passResult {
	p := &passResult{}
	var allocMB, allocs []float64
	start := time.Now()
	for i := 0; i < n && i < len(r.inputs); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		p.attempted++
		rr, err := runRequest(r.inputs[i], t, i)
		p.outcomes = append(p.outcomes, rr.out)
		if err != nil {
			p.fail("request %d: %v", i, err)
			continue
		}
		lat := ms(rr.wall)
		p.opMS = append(p.opMS, lat)
		if t != nil {
			p.tracedMS = append(p.tracedMS, lat)
			allocMB = append(allocMB, rr.allocMB)
			allocs = append(allocs, rr.allocs)
		} else {
			p.untracedMS = append(p.untracedMS, lat)
		}
	}
	p.wall = time.Since(start)

	// The paper's figure: host time per simulated cycle per simulated
	// processor. The numerator is the whole request, not Result.Wall.
	var procCycles float64
	for _, o := range p.outcomes {
		procCycles += float64(o.Cycles) * float64(o.Processors)
	}
	if procCycles > 0 {
		p.set("slowdown_per_proc", sum(p.opMS)*1e6/procCycles, len(p.opMS))
	}
	if len(allocMB) > 0 {
		p.set("machine.alloc_mb_per_request", median(allocMB), len(allocMB))
		p.set("machine.allocs_per_request", median(allocs), len(allocs))
	}
	return p
}

func (r *requestRunner) verify(p *passResult) error {
	if len(p.outcomes) == 0 {
		return fmt.Errorf("no outcomes to verify")
	}
	again, err := runRequest(r.inputs[0], nil, 0)
	if err != nil {
		return fmt.Errorf("re-running request 0: %w", err)
	}
	if again.out != p.outcomes[0] {
		return fmt.Errorf("request 0 is not repeatable: first %+v, again %+v", p.outcomes[0], again.out)
	}
	return checkInstructions(r.inputs[0], again.out)
}

func (r *requestRunner) close() {}
