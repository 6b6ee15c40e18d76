package server_test

import (
	"net/http"
	"strings"
	"testing"

	"mermaid/internal/server"
)

// jobResolutions pins what every digestJobs document resolves to: the hash of
// its machine configuration and the cache key its outcome is stored under.
// Both were re-printed once when Validate began writing the defaults back
// (LocalBytesPerCycle 8 in both): they hash the effective configuration. The
// keys were re-printed once more when jobs began to be keyed by the effective
// workload description, every field written out, not by the document as
// submitted.
var jobResolutions = map[string][2]string{
	"service-mix":           {"ba8a98c3e480ce5a4208f130d71aa7eee62e4c37fc8fe2220976a73faf8e3275", "73d0b01c767ac57b3f5f562a6c6e29bf74d8d647508336cf7c071d01cd238d0b"},
	"torus-wormhole-config": {"fd76c3f489159b76420332edf7bcf1e8fe531843fc8e396fde8f1a2df6a533ea", "d0ebac725a566c456c1aa06093b16100ba7586eea0a455ace586a23372b5e19b"},
}

// invalidJobErrors pins the 400 body POST /jobs answers each invalidJobs
// document with.
var invalidJobErrors = map[string]string{
	"empty":              "mermaidd: a machine is required: preset, config or topology",
	"bad json":           "mermaidd: parsing job: unexpected EOF",
	"both machine forms": "mermaidd: give exactly one of config and topology",
	"unknown topology":   `mermaidd: topology spec "moebius:7": unknown kind "moebius" (have ring, mesh, torus, torus3d, hypercube, star, full, fattree, dragonfly)`,
	"no workload":        "mermaidd: a workload description is required",
	"level mismatch":     "mermaidd: instruction-level workload on a task-mode machine",
	"node mismatch":      "mermaidd: workload describes 5 nodes, machine has 16 streams",
	"unknown field":      `mermaidd: parsing job: json: unknown field "x"`,
	"engine selector":    `mermaidd: parsing job: json: unknown field "engine"`,
	// Delay(16) = 500·1000^15 overflowed int64 and panicked the run.
	"retransmission overflow": "mermaidd: fault: retransmission timeout 500 with backoff 1000 waits more than 4611686018427387903 cycles before attempt 16",
}

func TestJobResolutionDigests(t *testing.T) {
	for name, doc := range digestJobs(t) {
		cfg, key, err := server.ResolveJob([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hash, err := cfg.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := [2]string{hash, key.ID()}, jobResolutions[name]; got != want {
			t.Errorf("%q: {%q, %q}, // pinned %q", name, got[0], got[1], want)
		}
	}
	_, ts := startServer(t, server.Config{Workers: 1})
	for _, tc := range invalidJobs {
		j, code := submit(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if got, want := strings.TrimSpace(j.Error), invalidJobErrors[tc.name]; got != want {
			t.Errorf("%q: %q, // pinned %q", tc.name, got, want)
		}
	}
}

// A workload document that leaves the instruction-level defaults out and
// one that writes them out describe one run: they resolve to one key, and
// submitting the second is answered from the cache the first filled.
func TestEffectiveWorkloadKey(t *testing.T) {
	job := func(phase string) string {
		return `{"preset": "t805-2x2", "workload": {"Level": "instruction", "Seed": 3, "Iterations": 2,
			"Phases": [{"Instructions": 400, ` + phase + `"Comm": {"Pattern": "nearest", "Bytes": 256}}]}}`
	}
	omitted := job("")
	written := job(`"Mix": {"Load": 0.25, "Store": 0.1, "IntArith": 0.3, "FltArith": 0.25, "Branch": 0.1},
		"Mem": {"Base": 268435456, "WorkingSet": 65536, "Access": 3}, `)
	_, k1, err := server.ResolveJob([]byte(omitted))
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := server.ResolveJob([]byte(written))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaults omitted: key %s; written out: key %s", k1.ID(), k2.ID())
	}
	_, ts := startServer(t, server.Config{Workers: 1})
	first, code := submit(t, ts, omitted)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d (%s)", code, first.Error)
	}
	waitDone(t, ts, first.ID)
	second, code := submit(t, ts, written)
	if code != http.StatusOK || !second.Cached {
		t.Errorf("second submission: status %d, cached %v; want a cache hit", code, second.Cached)
	}
}

// A workload document that omits Nodes is sized to the machine's streams, so
// it and one that gives the stream count describe one run: they resolve to
// one key, and submitting the second is answered from the cache the first
// filled.
func TestSizedWorkloadKey(t *testing.T) {
	job := func(nodes string) string {
		return `{"topology": "torus:4x4", "workload": {` + nodes + `"Level": "task", "Seed": 5, "Iterations": 2,
			"Phases": [{"Duration": 300, "Comm": {"Pattern": "exchange", "Bytes": 512}}]}}`
	}
	omitted, sized := job(""), job(`"Nodes": 16, `)
	_, k1, err := server.ResolveJob([]byte(omitted))
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := server.ResolveJob([]byte(sized))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("Nodes omitted: key %s; Nodes 16: key %s", k1.ID(), k2.ID())
	}
	_, ts := startServer(t, server.Config{Workers: 1})
	first, code := submit(t, ts, omitted)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d (%s)", code, first.Error)
	}
	waitDone(t, ts, first.ID)
	second, code := submit(t, ts, sized)
	if code != http.StatusOK || !second.Cached {
		t.Errorf("second submission: status %d, cached %v; want a cache hit", code, second.Cached)
	}
}
