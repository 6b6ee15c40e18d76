package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mermaid/internal/machine"
	"mermaid/internal/pearl"
	"mermaid/internal/server"
	"mermaid/internal/stochastic"
)

const (
	serviceTopology = "mesh:8x8"
	// serviceRecent is how far back a client reaches for a document to
	// resubmit. Two clients times 64 stays well inside the 256-entry cache,
	// so a hit always hits.
	serviceRecent = 64
	servicePoll   = 2 * time.Millisecond
)

func serviceDesc() stochastic.Desc { return taskExchange(64, 8192, 40) }

// serviceDoc is the POST /jobs request document.
type serviceDoc struct {
	Name     string          `json:"name"`
	Topology string          `json:"topology"`
	Seed     uint64          `json:"seed"`
	Workload stochastic.Desc `json:"workload"`
}

// serviceJob generates a client's k-th distinct job: the document posted to
// the server and the equivalent in-process request, for cross-checking.
func serviceJob(seed uint64, workload string, client, k int) ([]byte, requestInput, error) {
	idx := client*1_000_000 + k
	desc := serviceDesc()
	desc.Seed = deriveSeed(seed, workload, idx, "desc")
	doc := serviceDoc{
		Name:     fmt.Sprintf("%s-c%d-%d", workload, client, k),
		Topology: serviceTopology,
		Seed:     deriveSeed(seed, workload, idx, "machine"),
		Workload: desc,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, requestInput{}, err
	}
	cfg, err := machine.TaskMachineFromSpec(serviceTopology)
	if err != nil {
		return nil, requestInput{}, err
	}
	cfg.Seed = doc.Seed
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, requestInput{}, err
	}
	return data, requestInput{config: cfgJSON, desc: desc, timeline: true, analysis: true}, nil
}

// jobStatus is the part of the server's job JSON the client reads.
type jobStatus struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Cached      bool    `json:"cached"`
	Error       string  `json:"error"`
	Cycles      int64   `json:"cycles"`
	Events      uint64  `json:"events"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	WallMS      float64 `json:"wall_ms"`
}

// jobStat is what the client measured for one job.
type jobStat struct {
	hit         bool
	latMS       float64 // submit -> report bytes in hand
	submitMS    float64 // POST round trip
	fetchMS     float64 // GET report round trip
	queueWaitMS float64 // as reported by the server
	runMS       float64 // as reported by the server
	status      jobStatus
	reportHash  string
	traced      bool
}

// serviceRunner drives the in-process daemon with closed-loop clients: each
// waits for its reply before sending the next job.
type serviceRunner struct {
	name    string
	rc      runConfig
	clients int

	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	// seeds holds one finished job per client, run during set-up, so that
	// a client's first hit has something older than its first miss to ask
	// for again.
	seeds []sent

	rejected atomic.Int64 // 503 answers
}

// sent is a document a client has submitted and the report it got back.
type sent struct {
	doc        []byte
	reportHash string
}

func newServiceRunner(w *workload, rc runConfig) runner {
	return &serviceRunner{name: w.name, rc: rc, clients: 2}
}

func (r *serviceRunner) prepare(int) error {
	r.close()
	r.srv = server.New(server.Config{Workers: r.rc.nproc, CacheEntries: 256})
	r.ts = httptest.NewServer(r.srv.Handler())
	r.client = r.ts.Client()
	r.seeds = make([]sent, r.clients)
	for c := range r.seeds {
		doc, _, err := serviceJob(r.rc.seed, r.name, c, -1)
		if err != nil {
			return err
		}
		st, err := r.doJob(doc, nil, -1, c)
		if err != nil {
			return fmt.Errorf("seed job: %w", err)
		}
		if st.hit {
			return fmt.Errorf("seed job was answered from an empty cache")
		}
		r.seeds[c] = sent{doc: doc, reportHash: st.reportHash}
	}
	return nil
}

// warm completes the warm-up the seed jobs began (they were misses) with one
// hit.
func (r *serviceRunner) warm() error {
	st, err := r.doJob(r.seeds[0].doc, nil, -1, 0)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if !st.hit {
		return fmt.Errorf("warm-up job was not answered from the cache")
	}
	return nil
}

func (r *serviceRunner) close() {
	if r.ts != nil {
		r.ts.Close()
		r.srv.Close()
		r.ts, r.srv = nil, nil
	}
}

func (r *serviceRunner) get(path string) ([]byte, int, error) {
	resp, err := r.client.Get(r.ts.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// doJob is one job as a caller sees it: POST /jobs, poll GET /jobs/{id}
// until done, GET /jobs/{id}/report.
func (r *serviceRunner) doJob(doc []byte, tr *tracer, req, lane int) (jobStat, error) {
	var st jobStat
	st.traced = tr != nil
	start := time.Now()
	root := tr.begin("job", -1, req, lane)

	sp := tr.begin("server.submit", root, req, lane)
	resp, err := r.client.Post(r.ts.URL+"/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return st, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	st.submitMS = ms(time.Since(start))
	if err != nil {
		return st, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusServiceUnavailable:
		r.rejected.Add(1)
		return st, fmt.Errorf("submit refused: 503 %s", bytes.TrimSpace(body))
	default:
		return st, fmt.Errorf("submit: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &st.status); err != nil {
		return st, fmt.Errorf("submit response: %w", err)
	}

	sp = tr.begin("server.wait", root, req, lane)
	for st.status.State != "done" {
		if st.status.State == "failed" {
			return st, fmt.Errorf("job %s failed: %s", st.status.ID, st.status.Error)
		}
		time.Sleep(servicePoll)
		data, code, err := r.get("/jobs/" + st.status.ID)
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("poll %s: %d", st.status.ID, code)
		}
		if err := json.Unmarshal(data, &st.status); err != nil {
			return st, fmt.Errorf("poll response: %w", err)
		}
	}
	tr.end(sp)

	fetchStart := time.Now()
	sp = tr.begin("server.fetch", root, req, lane)
	report, code, err := r.get("/jobs/" + st.status.ID + "/report")
	tr.end(sp)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("report %s: %d", st.status.ID, code)
	}
	tr.end(root)
	st.fetchMS = ms(time.Since(fetchStart))
	st.latMS = ms(time.Since(start))
	st.hit = st.status.Cached
	st.queueWaitMS = st.status.QueueWaitMS
	st.runMS = st.status.WallMS
	st.reportHash = hashHex(report)
	if len(report) == 0 {
		return st, fmt.Errorf("job %s: empty report", st.status.ID)
	}
	if st.status.Cycles <= 0 {
		return st, fmt.Errorf("job %s: %d simulated cycles", st.status.ID, st.status.Cycles)
	}
	return st, nil
}

// clientLog is one client's view of its jobs, in order.
type clientLog struct {
	stats    []jobStat
	failures []string
	failed   int
	missIDs  []string // job ids of the misses, for artifact inspection
}

func (r *serviceRunner) runClient(c, jobs int, tr *tracer) *clientLog {
	log := &clientLog{}
	pick := pearl.NewRNG(deriveSeed(r.rc.seed, r.name, c, "pick"))
	recent := []sent{r.seeds[c]}
	misses, hits := 0, 0
	for j := 0; j < jobs; j++ {
		wantHit := j%2 == 1 // a miss, then its hit
		var doc []byte
		var src *sent
		var t *tracer
		if wantHit {
			// Not the miss that has only just answered: the server
			// publishes "done" a moment before it stores the result, and
			// a resubmission inside that moment would run again.
			hi := len(recent) - 1
			lo := max(0, hi-serviceRecent)
			src = &recent[lo+pick.Intn(hi-lo)]
			doc = src.doc
			if hits%2 == 1 {
				t = tr
			}
			hits++
		} else {
			d, _, err := serviceJob(r.rc.seed, r.name, c, misses)
			if err != nil {
				log.failed++
				log.failures = append(log.failures, err.Error())
				continue
			}
			doc = d
			if misses%2 == 1 {
				t = tr
			}
			misses++
		}
		st, err := r.doJob(doc, t, c*1_000_000+j, c)
		switch {
		case err != nil:
		case st.hit != wantHit:
			err = fmt.Errorf("job %s answered cached=%v, expected %v", st.status.ID, st.hit, wantHit)
		case wantHit && st.reportHash != src.reportHash:
			err = fmt.Errorf("job %s: a hit's report differs from the miss that produced it", st.status.ID)
		}
		if err != nil {
			log.failed++
			if len(log.failures) < 5 {
				log.failures = append(log.failures, fmt.Sprintf("client %d job %d: %v", c, j, err))
			}
			if !wantHit {
				// Keep the hit schedule aligned: a failed miss still
				// leaves a document to resubmit.
				recent = append(recent, sent{doc: doc})
			}
			continue
		}
		log.stats = append(log.stats, st)
		if !wantHit {
			recent = append(recent, sent{doc: doc, reportHash: st.reportHash})
			log.missIDs = append(log.missIDs, st.status.ID)
		}
	}
	return log
}

func (r *serviceRunner) pass(n int, tr *tracer) *passResult {
	p := &passResult{}
	// Every client runs two miss-then-hit rounds at least, so that both
	// kinds of job occur traced and untraced.
	perClient := max(n/r.clients, 4)
	cache := r.srv.Cache()
	hits0, misses0, evict0 := cache.Hits(), cache.Misses(), cache.Evictions()
	r.rejected.Store(0)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	logs := make([]*clientLog, r.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = r.runClient(c, perClient, tr)
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var hitMS, missMS, submitMS, fetchMS, queueMS, runMS []float64
	for c, log := range logs {
		p.attempted += perClient
		p.failed += log.failed
		for _, f := range log.failures {
			if len(p.failures) < 5 {
				p.failures = append(p.failures, f)
			}
		}
		for _, st := range log.stats {
			if !st.hit { // the operation is the miss
				p.opMS = append(p.opMS, st.latMS)
				if st.traced {
					p.tracedMS = append(p.tracedMS, st.latMS)
				} else {
					p.untracedMS = append(p.untracedMS, st.latMS)
				}
			}
			submitMS = append(submitMS, st.submitMS)
			fetchMS = append(fetchMS, st.fetchMS)
			if st.hit {
				hitMS = append(hitMS, st.latMS)
			} else {
				missMS = append(missMS, st.latMS)
				queueMS = append(queueMS, st.queueWaitMS)
				runMS = append(runMS, st.runMS)
				if c == 0 {
					p.digestParts = append(p.digestParts,
						fmt.Sprintf("cycles=%d events=%d", st.status.Cycles, st.status.Events))
				}
			}
		}
	}

	jobs := len(hitMS) + len(missMS)
	p.set("hit_ms_p50", median(hitMS), len(hitMS))
	p.set("miss_ms_p50", median(missMS), len(missMS))
	if percentileAllowed(len(hitMS), 95) {
		p.set("hit_ms_p95", percentile(hitMS, 95), len(hitMS))
	}
	if percentileAllowed(len(missMS), 95) {
		p.set("miss_ms_p95", percentile(missMS, 95), len(missMS))
	}
	p.set("server.hit_ms_p50", median(hitMS), len(hitMS))
	p.set("server.miss_ms_p50", median(missMS), len(missMS))
	p.set("server.submit_ms_p50", median(submitMS), len(submitMS))
	p.set("server.fetch_ms_p50", median(fetchMS), len(fetchMS))
	p.set("server.queue_wait_ms_p50", median(queueMS), len(queueMS))
	p.set("server.run_ms_p50", median(runMS), len(runMS))
	p.set("server.rejected", float64(r.rejected.Load()), p.attempted)
	if jobs > 0 {
		retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		p.set("server.retained_mb_per_job", retained/(1<<20)/float64(jobs), jobs)
	}
	dh, dm := cache.Hits()-hits0, cache.Misses()-misses0
	if dh+dm > 0 {
		p.set("resultcache.hit_ratio", float64(dh)/float64(dh+dm), int(dh+dm))
	}
	p.set("resultcache.evictions", float64(cache.Evictions()-evict0), int(dh+dm))

	// Size of what a finished job holds on to: every artifact of one miss.
	if ids := logs[0].missIDs; len(ids) > 0 {
		total := 0
		for _, art := range []string{"report", "timeline", "bottleneck", "metrics"} {
			data, code, err := r.get("/jobs/" + ids[0] + "/" + art)
			if err != nil || code != http.StatusOK {
				p.fail("fetching %s of %s: code %d err %v", art, ids[0], code, err)
				continue
			}
			total += len(data)
		}
		p.set("server.artifact_kb_per_job", float64(total)/1024, 1)
	}
	return p
}

// verify checks the service against the simulator it wraps: client 0's
// first job, run directly in process, must simulate the cycle count the
// server reported (the server's live metric sampling adds kernel events of
// its own, so event counts are compared between server runs only), and
// resubmitting it must still be a hit.
func (r *serviceRunner) verify(p *passResult) error {
	if len(p.digestParts) == 0 {
		return fmt.Errorf("no completed miss to verify")
	}
	doc, in, err := serviceJob(r.rc.seed, r.name, 0, 0)
	if err != nil {
		return err
	}
	rr, err := runRequest(in, nil, 0)
	if err != nil {
		return fmt.Errorf("running job 0 directly: %w", err)
	}
	if direct := fmt.Sprintf("cycles=%d ", rr.out.Cycles); !strings.HasPrefix(p.digestParts[0], direct) {
		return fmt.Errorf("server reported %s for job 0, the same simulation run directly gives %s",
			p.digestParts[0], direct)
	}
	st, err := r.doJob(doc, nil, 0, 0)
	if err != nil {
		return fmt.Errorf("resubmitting job 0: %w", err)
	}
	if !st.hit {
		return fmt.Errorf("resubmitting job 0 was not answered from the cache")
	}
	return nil
}
