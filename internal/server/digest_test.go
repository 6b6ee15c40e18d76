package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"mermaid/internal/machine"
	"mermaid/internal/router"
	"mermaid/internal/server"
)

// jobArtifactDigests pins SHA-256 of every artifact a job serves, printed by
// the tree before block reasons and timeline names were interned. The report
// is hashed with its host wall-clock lines removed; the rest is hashed whole.
// The two reports were re-printed when the report stopped carrying the
// metric registry: each is the old report without its "registry" set,
// whose end-of-run values the metrics artifact serves. The two metrics
// expositions were re-printed when the registry gave way to the sampled
// report: they name every report metric by its path. Each artifact has a
// digest of its own, so a timeline that moves leaves the report, metrics and
// bottleneck pins in place.
var jobArtifactDigests = map[string]string{
	"service-mix/report":               "df70df1afcb37703e2bd41650e9c9b17782f42af53567b4c130fa4b2a189768d",
	"service-mix/metrics":              "73457e4082ef145011fc253d08533b75971bb8fbd7958f7371fac38818572960",
	"service-mix/timeline":             "3cbe01fb2b3b8a8ffec19bcb872bb46c2aadde3fbbd1fd452435da589d39766b",
	"service-mix/bottleneck":           "4aebe58c9fa9e134adfeab08ab9700da75a6d8fb6d4c8e3c76dd44b8f68cc3f5",
	"torus-wormhole-config/report":     "f1af37b2e3a6d1e0bbf98b2ed65f6f2b912008997cb0089f33fd44eb7c2f94af",
	"torus-wormhole-config/metrics":    "f53d4771d683f2d2e91086901cc4971844d4663e108e815434131e287e43615c",
	"torus-wormhole-config/timeline":   "458ca493ec9e75165e793558426ae90d0155bbac419664d908c0db376509e02d",
	"torus-wormhole-config/bottleneck": "8c8b4fe3cf7a285251db888960d96981f27498d97b4ed94da1b35d0abd83b0e6",
}

// digestJobs are the documents TestJobArtifactDigests posts: the benchmark's
// service job (an 8x8 mesh running an 8 KiB exchange 40 times) and a full
// configuration document for a wormhole 4x4 torus whose traffic crosses the
// datelines, so link waits land on both virtual channels.
func digestJobs(t testing.TB) map[string]string {
	t.Helper()
	cfg, err := machine.TaskMachineFromSpec("torus:4x4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name = "digest-torus"
	cfg.Seed = 7
	cfg.Network.Router.Switching = router.Wormhole
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"service-mix": `{
			"name": "service-mix-digest",
			"topology": "mesh:8x8",
			"seed": 12345,
			"workload": {
				"Nodes": 64, "Level": "task", "Seed": 678, "Iterations": 40,
				"Phases": [{"Duration": 2000, "CV": 0.1, "Comm": {"Pattern": "exchange", "Bytes": 8192}}]
			}
		}`,
		"torus-wormhole-config": fmt.Sprintf(`{
			"name": "torus-digest",
			"config": %s,
			"workload": {
				"Nodes": 16, "Level": "task", "Seed": 99, "Iterations": 6,
				"Phases": [
					{"Duration": 300, "CV": 0.2, "Comm": {"Pattern": "exchange", "Bytes": 16384}},
					{"Duration": 300, "CV": 0.2, "Comm": {"Pattern": "alltoall", "Bytes": 2048}}
				]
			}
		}`, cfgJSON),
	}
}

// stripWallClock drops the report lines that carry host time.
func stripWallClock(report []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("host wall time:")) || bytes.HasPrefix(line, []byte("sim speed:")) ||
			bytes.HasPrefix(line, []byte("slowdown/proc:")) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

func TestJobArtifactDigests(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, SampleEvery: 10000})
	for name, doc := range digestJobs(t) {
		j, code := submit(t, ts, doc)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d (%s)", name, code, j.Error)
		}
		waitDone(t, ts, j.ID)
		for _, art := range []string{"report", "metrics", "timeline", "bottleneck"} {
			data, code := get(t, ts, "/jobs/"+j.ID+"/"+art)
			if code != http.StatusOK {
				t.Fatalf("%s/%s: status %d", name, art, code)
			}
			if art == "report" {
				data = stripWallClock(data)
			}
			sum := sha256.Sum256(data)
			key := name + "/" + art
			got := hex.EncodeToString(sum[:])
			if want := jobArtifactDigests[key]; got != want {
				t.Errorf("%q: %q, // pinned %q", key, got, want)
			}
		}
	}
}

// The timeline, the bottleneck analysis and a done job's metrics are not
// stored: every GET of one re-runs the job. A miss and its cache hit serve
// the same bytes, those pinned in jobArtifactDigests. A re-derivation the
// queue has no room for answers 503; a job still running answers 409 for
// its timeline and bottleneck, as it does for its report, and serves its
// live metrics.
func TestHeavyArtifactsRederived(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, QueueDepth: 1, SampleEvery: 10000})
	var doneID string
	for name, doc := range digestJobs(t) {
		miss, code := submit(t, ts, doc)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d (%s)", name, code, miss.Error)
		}
		waitDone(t, ts, miss.ID)
		hit, code := submit(t, ts, doc)
		if code != http.StatusOK || !hit.Cached {
			t.Fatalf("%s resubmitted: status %d, cached %v", name, code, hit.Cached)
		}
		doneID = hit.ID
		for _, art := range []string{"timeline", "bottleneck", "metrics"} {
			fromMiss, code := get(t, ts, "/jobs/"+miss.ID+"/"+art)
			if code != http.StatusOK {
				t.Fatalf("%s/%s of the miss: status %d\n%s", name, art, code, fromMiss)
			}
			fromHit, code := get(t, ts, "/jobs/"+hit.ID+"/"+art)
			if code != http.StatusOK {
				t.Fatalf("%s/%s of the hit: status %d\n%s", name, art, code, fromHit)
			}
			if !bytes.Equal(fromMiss, fromHit) {
				t.Errorf("%s/%s: the hit serves %d bytes, the miss %d different ones", name, art, len(fromHit), len(fromMiss))
			}
			sum := sha256.Sum256(fromHit)
			key := name + "/" + art
			if got, want := hex.EncodeToString(sum[:]), jobArtifactDigests[key]; got != want {
				t.Errorf("%q: %q, pinned %q", key, got, want)
			}
		}
	}

	// One long job runs while the one-slot queue fills behind it.
	long, code := submit(t, ts, torusJob("long", 1, 5000))
	if code != http.StatusAccepted {
		t.Fatalf("long job: status %d (%s)", code, long.Error)
	}
	for state := long.State; state != "running"; {
		data, _ := get(t, ts, "/jobs/"+long.ID)
		var j jobResp
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		if state = j.State; state == "done" || state == "failed" {
			t.Fatalf("long job %s before its artifacts were asked for", state)
		}
	}
	for _, art := range []string{"timeline", "bottleneck"} {
		if data, code := get(t, ts, "/jobs/"+long.ID+"/"+art); code != http.StatusConflict {
			t.Errorf("%s of a running job: status %d, want 409\n%s", art, code, data)
		}
	}
	if data, code := get(t, ts, "/jobs/"+long.ID+"/metrics"); code != http.StatusOK || !bytes.Contains(data, []byte("mermaid_events_total")) {
		t.Errorf("metrics of a running job: status %d, want 200 and the live exposition\n%s", code, data)
	}
	for i := 0; ; i++ {
		_, code := submit(t, ts, torusJob(fmt.Sprintf("fill%d", i), uint64(2+i), 5000))
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusAccepted || i == 4 {
			t.Fatalf("filling the queue: submission %d answered %d", i, code)
		}
	}
	for _, art := range []string{"timeline", "bottleneck", "metrics"} {
		if data, code := get(t, ts, "/jobs/"+doneID+"/"+art); code != http.StatusServiceUnavailable {
			t.Errorf("%s with the queue full: status %d, want 503\n%.200s", art, code, data)
		}
	}
}
