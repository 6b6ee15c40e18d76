package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mermaid/internal/bus"
	"mermaid/internal/machine"
	"mermaid/internal/server"
	"mermaid/internal/topology"
)

type jobResp struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Key    string `json:"key"`
	Error  string `json:"error"`
	Cycles int64  `json:"cycles"`
	Events uint64 `json:"events"`
}

func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// torusJob is a small deterministic task-level job: a 4x4 torus driven by a
// nearest-neighbour stochastic workload.
func torusJob(name string, seed uint64, iterations int) string {
	return fmt.Sprintf(`{
		"name": %q,
		"topology": "torus:4x4",
		"seed": %d,
		"workload": {
			"Level": "task",
			"Iterations": %d,
			"Phases": [{"Duration": 5000, "Comm": {"Pattern": "nearest", "Bytes": 1024}}]
		}
	}`, name, seed, iterations)
}

func submit(t *testing.T, ts *httptest.Server, body string) (jobResp, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var j jobResp
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("submit response not JSON: %v\n%s", err, data)
		}
	} else {
		j.Error = string(data)
	}
	return j, resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobResp {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, code := get(t, ts, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d\n%s", id, code, data)
		}
		var j jobResp
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case "done":
			return j
		case "failed":
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobResp{}
}

// The headline acceptance path: submit a job, poll its progress to
// completion, fetch every artifact; resubmit the identical document and get
// a byte-identical report straight from the cache, with the hit visible in
// the server-level /metrics.
func TestSubmitPollFetchAndCacheHit(t *testing.T) {
	srv, ts := startServer(t, server.Config{Workers: 2, SampleEvery: 1000})

	j1, code := submit(t, ts, torusJob("first", 42, 10))
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d (%s)", code, j1.Error)
	}
	if j1.Cached || j1.ID == "" {
		t.Fatalf("first submission: %+v", j1)
	}
	done := waitDone(t, ts, j1.ID)
	if done.Cycles <= 0 || done.Events == 0 {
		t.Errorf("finished job reports no volume: %+v", done)
	}

	// Progress: a finished job reports done with 1/1 runs.
	progress, code := get(t, ts, "/jobs/"+j1.ID+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var p struct {
		VirtualCycles int64 `json:"virtualCycles"`
		RunsDone      int   `json:"runsDone"`
		RunsTotal     int   `json:"runsTotal"`
		Done          bool  `json:"done"`
	}
	if err := json.Unmarshal(progress, &p); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, progress)
	}
	if !p.Done || p.RunsDone != 1 || p.RunsTotal != 1 || p.VirtualCycles != done.Cycles {
		t.Errorf("progress = %+v, job = %+v", p, done)
	}

	// Artifacts: report text, Chrome-trace timeline, bottleneck JSON,
	// per-job metrics exposition.
	report1, code := get(t, ts, "/jobs/"+j1.ID+"/report")
	if code != http.StatusOK || !bytes.Contains(report1, []byte("simulated time:")) {
		t.Fatalf("report: %d\n%s", code, report1)
	}
	timeline, code := get(t, ts, "/jobs/"+j1.ID+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline: %d", code)
	}
	var tl struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(timeline, &tl); err != nil || len(tl.TraceEvents) == 0 {
		t.Errorf("timeline invalid (%v) or empty", err)
	}
	bottleneck, code := get(t, ts, "/jobs/"+j1.ID+"/bottleneck")
	if code != http.StatusOK || !json.Valid(bottleneck) {
		t.Fatalf("bottleneck: %d", code)
	}
	metrics1, code := get(t, ts, "/jobs/"+j1.ID+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metrics1, []byte("mermaid_events_total")) {
		t.Fatalf("job metrics: %d\n%s", code, metrics1)
	}

	// Resubmission: identical document, cache hit, no simulation.
	misses := srv.Cache().Misses()
	j2, code := submit(t, ts, torusJob("first", 42, 10))
	if code != http.StatusOK {
		t.Fatalf("resubmission: status %d (%s)", code, j2.Error)
	}
	if !j2.Cached || j2.State != "done" {
		t.Fatalf("resubmission not served from cache: %+v", j2)
	}
	if j2.ID == j1.ID {
		t.Error("resubmission reused the job id")
	}
	if j2.Key != j1.Key {
		t.Errorf("identical jobs got different cache keys: %s vs %s", j1.Key, j2.Key)
	}
	if srv.Cache().Hits() == 0 || srv.Cache().Misses() != misses {
		t.Errorf("cache hits/misses = %d/%d after resubmission", srv.Cache().Hits(), srv.Cache().Misses())
	}
	report2, _ := get(t, ts, "/jobs/"+j2.ID+"/report")
	if !bytes.Equal(report1, report2) {
		t.Error("cached report is not byte-identical to the original")
	}
	metrics2, _ := get(t, ts, "/jobs/"+j2.ID+"/metrics")
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("cached metrics exposition is not byte-identical to the original")
	}

	// The hit and the miss are visible on the server-level exposition.
	sm, code := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"mermaid_resultcache_hits 1\n", "mermaid_jobs_completed 1\n",
		"# HELP mermaid_resultcache_bytes unit: B\n"} {
		if !bytes.Contains(sm, []byte(want)) {
			t.Errorf("server /metrics missing %q:\n%s", want, sm)
		}
	}
	for _, name := range []string{"artifacts_rederived", "jobs_completed", "jobs_failed", "jobs_queued",
		"jobs_rejected", "jobs_running", "jobs_submitted", "resultcache_bytes", "resultcache_entries",
		"resultcache_evictions", "resultcache_hits", "resultcache_misses"} {
		if !bytes.Contains(sm, []byte("# TYPE mermaid_"+name+" gauge\n")) {
			t.Errorf("server /metrics has no gauge mermaid_%s:\n%s", name, sm)
		}
	}

	// A different seed is a different address: miss, fresh run.
	j3, code := submit(t, ts, torusJob("reseeded", 43, 10))
	if code != http.StatusAccepted || j3.Cached {
		t.Fatalf("different seed served from cache: %d %+v", code, j3)
	}
	waitDone(t, ts, j3.ID)
	report3, _ := get(t, ts, "/jobs/"+j3.ID+"/report")
	if bytes.Equal(report1, report3) {
		t.Error("different seeds produced byte-identical reports")
	}
}

// Two jobs running concurrently must report independent progress streams:
// each scope sees only its own job's virtual clock and completion.
func TestConcurrentJobsIndependentProgress(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 2, SampleEvery: 500})

	long, code := submit(t, ts, torusJob("long", 7, 400))
	if code != http.StatusAccepted {
		t.Fatalf("long: %d", code)
	}
	short, code := submit(t, ts, torusJob("short", 8, 3))
	if code != http.StatusAccepted {
		t.Fatalf("short: %d", code)
	}

	// The short job finishes while the long one is still running (or at
	// least: the two progress documents never alias each other's state).
	shortDone := waitDone(t, ts, short.ID)
	longDone := waitDone(t, ts, long.ID)
	if shortDone.Cycles == longDone.Cycles {
		t.Errorf("3- and 400-iteration jobs report equal cycles %d", shortDone.Cycles)
	}

	var ps, pl struct {
		VirtualCycles int64 `json:"virtualCycles"`
		RunsTotal     int   `json:"runsTotal"`
	}
	data, _ := get(t, ts, "/jobs/"+short.ID+"/progress")
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatal(err)
	}
	data, _ = get(t, ts, "/jobs/"+long.ID+"/progress")
	if err := json.Unmarshal(data, &pl); err != nil {
		t.Fatal(err)
	}
	if ps.VirtualCycles != shortDone.Cycles || pl.VirtualCycles != longDone.Cycles {
		t.Errorf("progress scopes leaked: short %d/%d, long %d/%d",
			ps.VirtualCycles, shortDone.Cycles, pl.VirtualCycles, longDone.Cycles)
	}
	if ps.RunsTotal != 1 || pl.RunsTotal != 1 {
		t.Errorf("per-job scopes should cover one run each: %+v %+v", ps, pl)
	}
}

// While a job is queued or running its artifacts answer 409, not 404 or a
// partial document.
func TestArtifactsBeforeCompletion(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, SampleEvery: 500})
	j, code := submit(t, ts, torusJob("slow", 9, 400))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if data, code := get(t, ts, "/jobs/"+j.ID+"/report"); code != http.StatusConflict {
		t.Errorf("report before completion: %d\n%s", code, data)
	}
	waitDone(t, ts, j.ID)
	if _, code := get(t, ts, "/jobs/"+j.ID+"/report"); code != http.StatusOK {
		t.Errorf("report after completion: %d", code)
	}
}

// A failed job keeps its scope's last sample: its /metrics serves the
// report as it stood at the last tick before the run failed, not the clock
// and event count alone.
func TestFailedJobMetricsKeepLastSample(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, SampleEvery: 100})
	// The only link is down for good and retries are few: deadlock.
	j, code := submit(t, ts, `{"topology": "mesh:2x1", "seed": 1,
		"faults": {"links": [{"a": 0, "b": 1, "from": 0}], "retrans": {"timeout": 100, "backoff": 2, "maxRetries": 2}},
		"workload": {"Level": "task", "Iterations": 2,
			"Phases": [{"Duration": 1000, "Comm": {"Pattern": "nearest", "Bytes": 256}}]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", code, j.Error)
	}
	if got := finished(t, ts, j.ID); got.State != "failed" {
		t.Fatalf("the deadlocking job is %s", got.State)
	}
	data, code := get(t, ts, "/jobs/"+j.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics of a failed job: status %d\n%s", code, data)
	}
	for _, want := range []string{"mermaid_virtual_cycles ", "mermaid_events_total ", "mermaid_network_mesh_2x1__retransmits ", "mermaid_proc0_compute_cycles "} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics of a failed job lack %q:\n%s", want, data)
		}
	}
}

// invalidJobs are documents POST /jobs refuses with 400.
var invalidJobs = []struct {
	name string
	body string
}{
	{"empty", `{}`},
	{"bad json", `{"topology":`},
	{"both machine forms", `{"topology":"torus:4x4","config":{"Name":"x"},"workload":{}}`},
	{"unknown topology", `{"topology":"moebius:7","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`},
	{"no workload", `{"topology":"torus:4x4"}`},
	{"level mismatch", `{"topology":"torus:4x4","workload":{"Level":"instruction","Iterations":1,"Phases":[{"Instructions":10}]}}`},
	{"node mismatch", `{"topology":"torus:4x4","workload":{"Level":"task","Nodes":5,"Iterations":1,"Phases":[{"Duration":1}]}}`},
	{"unknown field", `{"topology":"torus:4x4","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]},"x":1}`},
	{"engine selector", `{"topology":"torus:4x4","engine":"process","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`},
	{"retransmission overflow", `{"preset":"t805-task-4x4","faults":{"noise":[{"a":-1,"b":-1,"drop":0.9}],"retrans":{"timeout":500,"backoff":1000,"maxRetries":16}},` +
		`"workload":{"Level":"task","Iterations":2,"Phases":[{"Duration":100,"Comm":{"Pattern":"nearest","Bytes":64}}]}}`},
}

func TestSubmissionValidation(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	for _, tc := range invalidJobs {
		if _, code := submit(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if data, code := get(t, ts, "/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d\n%s", code, data)
	}
}

// A machine beyond the server's stream or port cap is refused with 400 before
// anything is built: a 2^20-node torus would retain gigabytes under the
// instrumentation every job runs with, and a 16,384-node star or full machine
// would allocate gigabytes of channel records.
func TestSubmissionMachineLimit(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	j, code := submit(t, ts, `{"topology":"torus3d:128x128x64","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("2^20-node job: status %d, want 400", code)
	}
	want := "mermaidd: machine has 1048576 nodes of 1 CPUs; a job may have at most 16384 streams"
	if strings.TrimSpace(j.Error) != want {
		t.Errorf("2^20-node job: error %q, want %q", j.Error, want)
	}

	// The same torus behind a configuration that declares 4 nodes: the
	// topology is sized, not trusted.
	cfg, err := machine.TaskMachineFromSpec("torus:2x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network.Topology = topology.Config{Kind: topology.Torus3D, DimX: 128, DimY: 128, DimZ: 64}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, code = submit(t, ts, `{"config":`+string(raw)+`,"workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("2^20-node topology in a 4-node config: status %d, want 400", code)
	}
	want = "mermaidd: machine: 4 nodes but topology torus3d(128x128x64) has 1048576"
	if strings.TrimSpace(j.Error) != want {
		t.Errorf("2^20-node topology in a 4-node config: error %q, want %q", j.Error, want)
	}

	// Within the stream cap but not the port cap: 16,384 nodes of degree
	// 16,383 would allocate some 17 GB of channel records.
	for _, spec := range []string{"star:16384", "full:16384"} {
		j, code = submit(t, ts, `{"topology":"`+spec+`","workload":{"Level":"task","Iterations":1,"Phases":[{"Duration":1}]}}`)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", spec, code)
		}
		if !strings.Contains(j.Error, "268419072 ports (16384 nodes of degree 16383); a job may have at most 98304") {
			t.Errorf("%s: error %q does not name the port cap", spec, j.Error)
		}
	}

	if _, code := submit(t, ts, torusJob("small", 1, 1)); code != http.StatusAccepted {
		t.Errorf("a small job after the refused ones: status %d", code)
	}
}

// A job document over the 1 MiB cap is refused with 413 before it is
// decoded in full.
func TestSubmissionBodyLimit(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	body := `{"name": "` + strings.Repeat("x", 2<<20) + `", "topology": "torus:4x4"}`
	j, code := submit(t, ts, body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB job: status %d, want 413\n%.200s", code, j.Error)
	}
	if !strings.HasPrefix(j.Error, "mermaidd: ") {
		t.Errorf("413 body %q lacks the mermaidd: prefix", j.Error)
	}
	if _, code := submit(t, ts, torusJob("small", 1, 1)); code != http.StatusAccepted {
		t.Errorf("a small job after the refused one: status %d", code)
	}
}

// A full queue sheds load with 503 instead of queueing unboundedly.
func TestQueueBackpressure503(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, QueueDepth: 1, SampleEvery: 500})
	// One long job occupies the worker; more fill the one-slot queue; the
	// rest must be refused.
	refused := 0
	for i := 0; i < 6; i++ {
		_, code := submit(t, ts, torusJob(fmt.Sprintf("q%d", i), uint64(100+i), 400))
		if code == http.StatusServiceUnavailable {
			refused++
		} else if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, code)
		}
	}
	if refused == 0 {
		t.Error("queue of depth 1 accepted 6 long jobs without shedding")
	}
}

func TestHealthAndListing(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	if data, code := get(t, ts, "/healthz"); code != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, data)
	}
	j, code := submit(t, ts, torusJob("listed", 5, 3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitDone(t, ts, j.ID)
	data, code := get(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: %d", code)
	}
	var list struct {
		Jobs []jobResp `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Name != "listed" {
		t.Errorf("listing = %+v", list)
	}

	// Every GET of a timeline or a bottleneck analysis is one more run,
	// counted on the server's own exposition.
	for _, art := range []string{"timeline", "bottleneck", "timeline"} {
		if _, code := get(t, ts, "/jobs/"+j.ID+"/"+art); code != http.StatusOK {
			t.Fatalf("%s: %d", art, code)
		}
	}
	if sm, _ := get(t, ts, "/metrics"); !bytes.Contains(sm, []byte("mermaid_artifacts_rederived 3\n")) {
		t.Errorf("server /metrics does not count 3 re-derivations:\n%s", sm)
	}
}

// A job may name its machine by preset. It resolves to the configuration
// the preset's -dump-config document does, so the two share a cache key; so
// do the preset's configuration as written, its defaults left zero, and the
// same with every default written out.
func TestPresetJob(t *testing.T) {
	const wl = `"workload":{"Level":"task","Iterations":2,"Phases":[{"Duration":100,"Comm":{"Pattern":"nearest","Bytes":64}}]}`
	cfg, key, err := server.ResolveJob([]byte(`{"preset":"t805-task-4x4",` + wl + `}`))
	if err != nil {
		t.Fatal(err)
	}
	written := machine.T805GridTaskLevel(4, 4)
	b := &written.Node.Hierarchy.Bus
	b.Kind, b.Banks, b.InterleaveBytes = bus.KindBus, 4, 64
	written.Network.LocalBytesPerCycle = 8
	for form, c := range map[string]machine.Config{"dumped": cfg, "as written": machine.T805GridTaskLevel(4, 4), "written out": written} {
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, fromConfig, err := server.ResolveJob([]byte(`{"config":` + string(raw) + `,` + wl + `}`)); err != nil || fromConfig != key {
			t.Errorf("the preset's configuration document, %s, resolves to %v (%v), the preset to %v", form, fromConfig, err, key)
		}
	}
	_, ts := startServer(t, server.Config{Workers: 1})
	j, code := submit(t, ts, `{"preset":"t805-task-4x4",`+wl+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("preset job: status %d (%s)", code, j.Error)
	}
	if done := waitDone(t, ts, j.ID); done.State != "done" {
		t.Errorf("preset job: %+v", done)
	}
	if _, code := submit(t, ts, `{"preset":"t805-9x9",`+wl+`}`); code != http.StatusBadRequest {
		t.Errorf("unknown preset: status %d, want 400", code)
	}
}
