// Command mermaidd is the workbench as a service: a long-running HTTP
// simulation server on top of the farm and analysis layers. Clients POST a
// machine configuration (schema v2 JSON or a compact topology spec) plus a
// stochastic workload and optional fault schedule to /jobs, poll per-job
// progress and live metrics, and fetch the finished report, timeline and
// bottleneck analysis. Identical jobs are answered from a content-addressed
// result cache without re-running the simulation — the workbench's
// determinism makes responses cacheable by construction. A job keeps only
// its report and metrics: each GET of its timeline or bottleneck analysis
// re-derives it by one more run of the simulation, and retains nothing.
//
// Operationally the daemon logs one structured line per job-lifecycle event
// (accept, start, finish, fail, reject) with the job id for correlation,
// serves a JSON liveness probe at /healthz, each job's wall-clock schedule
// at /jobs/{id}/hosttrace, and — with -pprof — the Go profiling endpoints
// under /debug/pprof/.
//
//	mermaidd -addr 127.0.0.1:8080 -workers 8 -queue 64 -cache 256
//
//	curl -s localhost:8080/jobs -d '{"topology":"torus:4x4",
//	  "workload":{"Level":"task","Iterations":10,"Phases":[{"Duration":5000,
//	  "Comm":{"Pattern":"nearest","Bytes":1024}}]}}'
//	curl -s localhost:8080/jobs/j1/progress
//	curl -s localhost:8080/jobs/j1/report
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mermaid/internal/pearl"
	"mermaid/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers  = flag.Int("workers", 0, "simulations run concurrently (0 = host CPU count)")
		queue    = flag.Int("queue", 64, "bounded job queue depth; submissions beyond it get 503")
		cache    = flag.Int("cache", 256, "result cache capacity in entries")
		sample   = flag.Int64("sample", 10000, "per-job live metric sampling interval in cycles")
		pprofOn  = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
		drainFor = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for queued and running jobs")
		logJSON  = flag.Bool("log-json", false, "emit the operational log as JSON lines instead of logfmt-style text")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	srv := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		SampleEvery:  pearl.Time(*sample),
		Log:          log,
		EnablePprof:  *pprofOn,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Info("serving", "addr", fmt.Sprintf("http://%s", ln.Addr()),
		"workers", *workers, "queue", *queue, "cache", *cache, "pprof", *pprofOn)
	go httpSrv.Serve(ln) //nolint:errcheck // closed via Shutdown

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Stop taking requests, let in-flight responses finish, then drain the
	// simulation queue so no accepted job is lost.
	log.Info("shutting down", "drain_timeout", *drainFor)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	dctx, dcancel := context.WithTimeout(context.Background(), *drainFor)
	defer dcancel()
	drained, aborted := srv.Drain(dctx)
	log.Info("shutdown complete", "drained", drained, "aborted", aborted)
	if aborted > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mermaidd:", err)
	os.Exit(1)
}
