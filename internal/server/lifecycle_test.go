package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mermaid/internal/machine"
	"mermaid/internal/server"
)

// finished polls a job as fast as the server answers — no pause between
// polls — until it is done or failed.
func finished(t *testing.T, ts *httptest.Server, id string) jobResp {
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
		if j.State == "done" || j.State == "failed" {
			return j
		}
	}
	t.Fatalf("job %s never finished", id)
	return jobResp{}
}

// A client that sees "done" may resubmit the same document at once; the
// result must already be in the cache then. The server used to publish the
// state first and store the result after. The window is a lock hand-over
// wide, so the client here calls the handler in process, without a network
// round trip in between, and never pauses.
func TestResubmissionTheInstantDoneIsRead(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, SampleEvery: 1000})
	defer srv.Close()
	call := func(method, path, body string, into any) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Errorf("%s %s: %v\n%s", method, path, err, rec.Body)
		}
		return rec.Code
	}
	// More clients than cores: the worker finishing a job is then often
	// descheduled right where the window used to be.
	const clients, jobsEach = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				doc := torusJob("race", uint64(1000+c*jobsEach+i), 1)
				var first, poll, again jobResp
				if code := call("POST", "/jobs", doc, &first); code != http.StatusAccepted {
					t.Errorf("client %d job %d: status %d", c, i, code)
					return
				}
				for poll.State != "done" {
					call("GET", "/jobs/"+first.ID, "", &poll)
					if poll.State == "failed" {
						t.Errorf("client %d job %d failed: %s", c, i, poll.Error)
						return
					}
				}
				if code := call("POST", "/jobs", doc, &again); code != http.StatusOK || !again.Cached {
					t.Errorf("client %d job %d: resubmitted the instant it read done, got status %d, cached %v", c, i, code, again.Cached)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Jobs that leave simulation processes parked — DSM managers that serve
// forever, nodes blocked by a severed link — must not leave goroutines (and
// with them whole machines) behind in a long-lived server.
func TestJobsLeaveNoGoroutines(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 2, SampleEvery: 1000})
	dsm, err := json.Marshal(machine.DSMCluster(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := func(i int) (doc, want string) {
		if i%2 == 0 {
			// Four DSM manager processes outlive every such run.
			return fmt.Sprintf(`{"config": %s, "seed": %d, "workload": {
				"Level": "instruction", "Iterations": 1,
				"Phases": [{"Instructions": 200, "Comm": {"Pattern": "nearest", "Bytes": 64}}]}}`, dsm, i), "done"
		}
		// The only link is down for good and retries are few: deadlock.
		return fmt.Sprintf(`{"topology": "mesh:2x1", "seed": %d,
			"faults": {"links": [{"a": 0, "b": 1, "from": 0}], "retrans": {"timeout": 100, "backoff": 2, "maxRetries": 2}},
			"workload": {"Level": "task", "Iterations": 2,
				"Phases": [{"Duration": 1000, "Comm": {"Pattern": "nearest", "Bytes": 256}}]}}`, i), "failed"
	}
	runJobs := func(from, to int) {
		for i := from; i < to; i++ {
			doc, want := job(i)
			j, code := submit(t, ts, doc)
			if code != http.StatusAccepted {
				t.Fatalf("job %d: status %d (%s)", i, code, j.Error)
			}
			if got := finished(t, ts, j.ID); got.State != want {
				t.Fatalf("job %d: %s (%s), want %s", i, got.State, got.Error, want)
			}
			if i == 4 {
				// A re-derivation builds and runs the machine once more.
				if data, code := get(t, ts, "/jobs/"+j.ID+"/timeline"); code != http.StatusOK {
					t.Fatalf("job %d timeline: status %d\n%s", i, code, data)
				}
			}
		}
	}
	// Let the HTTP client, the server's connection handlers and the workers
	// reach their steady population first.
	runJobs(0, 4)
	base := runtime.NumGoroutine()
	runJobs(4, 54)
	// Fifty jobs used to leave 150 parked processes behind, and the
	// re-derivation runs one more DSM machine; connection handlers come and
	// go by a few.
	const slack = 6
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 more jobs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
