package server_test

import (
	"net/http"
	"strings"
	"testing"

	"mermaid/internal/server"
)

// jobResolutions pins what every digestJobs document resolves to: the hash of
// its machine configuration and the cache key its outcome is stored under.
var jobResolutions = map[string][2]string{
	"service-mix":           {"3ceaa0cc9da87f5bb3f9e6c9f76be80f3768f6ff3eaf42944ce33e75b81aefc3", "8407e99808564f1e2fbd61378746c844b175498ceb58e28cc0c779640d24fc87"},
	"torus-wormhole-config": {"d8bf1330b8c06626e42581e89dd183d6d05fe134c1df5c7982e7e55e6d1f7d2c", "bbd6089713ca925d7c62d5ccf33ab1e049e601283e58e1f6b8b1505b63f5bed9"},
}

// invalidJobErrors pins the 400 body POST /jobs answers each invalidJobs
// document with.
var invalidJobErrors = map[string]string{
	"empty":              "mermaidd: a machine is required: config or topology",
	"bad json":           "mermaidd: parsing job: unexpected EOF",
	"both machine forms": "mermaidd: give exactly one of config and topology",
	"unknown topology":   `mermaidd: topology spec "moebius:7": unknown kind "moebius" (have ring, mesh, torus, torus3d, hypercube, star, full, fattree, dragonfly)`,
	"no workload":        "mermaidd: a workload description is required",
	"level mismatch":     "mermaidd: instruction-level workload on a task-mode machine",
	"node mismatch":      "mermaidd: workload describes 5 nodes, machine has 16 streams",
	"unknown field":      `mermaidd: parsing job: json: unknown field "x"`,
	"engine selector":    `mermaidd: parsing job: json: unknown field "engine"`,
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
