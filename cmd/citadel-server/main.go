// Command citadel-server exposes the simulators over HTTP/JSON for sweep
// scripts and dashboards.
//
// Usage:
//
//	citadel-server -addr :8080 -max-concurrent 2 -sim-timeout 5m
//
// Routes (see internal/api):
//
//	GET  /api/v1/healthz
//	GET  /api/v1/readyz
//	GET  /api/v1/schemes
//	GET  /api/v1/benchmarks
//	GET  /api/v1/overhead
//	POST /api/v1/reliability   {"scheme":"Citadel","trials":100000,"tsvFit":1430,"tsvSwap":true}
//	POST /api/v1/performance   {"benchmark":"mcf","striping":"across-channels"}
//	POST /api/v1/jobs          async campaign submission (only with -job-dir)
//	GET  /api/v1/jobs{,/{id}}  job listing / status / result
//	GET  /api/v1/jobs/{id}/events  live job progress over SSE (only with -job-dir)
//	DELETE /api/v1/jobs/{id}   cancel a queued or running job
//	POST /api/v1/cluster/...   worker lease/heartbeat/complete (only with -cluster)
//	GET  /api/v1/cluster/workers  worker fleet view (only with -cluster)
//	GET  /metrics              Prometheus text metrics (engine + API counters)
//	GET  /debug/trace          flight-recorder dump (only with -trace; ?format=text)
//	GET  /debug/pprof/         live profiling (only with -pprof)
//
// Every simulation run gets a run ID, returned in the X-Run-Id response
// header and stamped on the run's start/done log lines.
//
// Operational behavior: at most -max-concurrent simulations run at once
// (excess requests wait up to -queue-wait, then get 429 + Retry-After);
// each simulation is bounded by -sim-timeout and by the client's
// connection (disconnects cancel the run; both yield a partial result).
// On SIGINT/SIGTERM the server stops accepting work, waits up to
// -drain-timeout for in-flight runs, then cancels them so they flush
// partial results before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs/trace"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/stream"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxConcurrent = flag.Int("max-concurrent", 0, "simultaneous simulations (0 = GOMAXPROCS)")
		queueWait     = flag.Duration("queue-wait", 2*time.Second, "how long a request may wait for a simulation slot before 429")
		simTimeout    = flag.Duration("sim-timeout", 5*time.Minute, "per-request simulation deadline (expired runs return partial results)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "shutdown: how long to wait for in-flight runs before cancelling them")
		enablePprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (trusted networks only)")
		traceCap      = flag.Int("trace", 0, "flight-recorder capacity in events; >0 mounts GET /debug/trace")
		traceSample   = flag.Int("trace-sample", 64, "flight recorder: keep roughly 1-in-N spans")
		jobDir        = flag.String("job-dir", "", "durable job store directory; enables the async /api/v1/jobs routes with checkpoint/resume")
		jobWorkers    = flag.Int("job-workers", 1, "orchestrator worker goroutines executing campaigns")
		jobQueue      = flag.Int("job-queue", 64, "bounded job queue depth (full queue answers 429)")
		jobCacheMB    = flag.Int64("job-cache-mb", 256, "content-addressed result cache cap in MiB (LRU eviction past it)")
		clusterMode   = flag.Bool("cluster", false, "distribute reliability campaigns to citadel-worker processes (requires -job-dir)")
		streamSubs    = flag.Int("stream-max-subscribers", 0, "SSE subscriber cap across all jobs; excess connections get 429 (0 = default 16384)")
		leaseTTL      = flag.Duration("lease-ttl", 15*time.Second, "cluster: chunk lease TTL (workers heartbeat at TTL/3; an idle worker's lease request is held open up to TTL/3, at most 10s)")
		noWorkerGrace = flag.Duration("no-worker-grace", 10*time.Second, "cluster: how long a campaign waits with zero live workers before running locally")
	)
	flag.Parse()

	// The process flight recorder is shared by every simulation run; each
	// run's spans carry its X-Run-Id for correlation.
	var rec *trace.Recorder
	if *traceCap > 0 {
		rec = trace.New(trace.Options{
			Capacity:    *traceCap,
			SampleEvery: *traceSample,
			RunID:       "citadel-server",
		})
	}

	// With -job-dir, campaigns can also run asynchronously: submissions are
	// checkpointed to a content-addressed store, so a restarted server
	// re-enqueues interrupted campaigns instead of losing them, and a
	// resubmitted spec is answered from cache without re-simulating.
	// With -cluster, reliability campaigns are sharded into chunk leases
	// and pulled by citadel-worker processes over the same HTTP API; a
	// campaign with no live workers falls back to local execution.
	var coord *cluster.Coordinator
	if *clusterMode {
		if *jobDir == "" {
			log.Fatal("-cluster requires -job-dir (campaign chunks checkpoint through the job store)")
		}
		coord = cluster.New(cluster.Options{
			LeaseTTL:      *leaseTTL,
			NoWorkerGrace: *noWorkerGrace,
			Logf:          log.Printf,
		})
	}

	var orch *jobs.Orchestrator
	var hub *stream.Hub
	if *jobDir != "" {
		st, err := store.Open(*jobDir, store.Options{
			MaxBytes: *jobCacheMB << 20,
			Logf:     log.Printf,
		})
		if err != nil {
			log.Fatalf("job store %s: %v", *jobDir, err)
		}
		// The SSE hub rides along with the job routes: every job state
		// transition and progress checkpoint is published once and fanned
		// out to GET /api/v1/jobs/{id}/events subscribers.
		hub = stream.New(stream.Options{
			MaxSubscribers: *streamSubs,
			Logf:           log.Printf,
		})
		opts := jobs.Options{
			Store:      st,
			Workers:    *jobWorkers,
			QueueDepth: *jobQueue,
			Stream:     hub,
			Logf:       log.Printf,
		}
		if coord != nil {
			opts.ChunkExec = coord
		}
		orch = jobs.New(opts)
		if recovered := orch.Recover(); recovered > 0 {
			log.Printf("jobs: re-enqueued %d checkpointed campaigns from %s", recovered, *jobDir)
		}
	}

	apiSrv := api.New(api.Options{
		MaxConcurrent: *maxConcurrent,
		QueueWait:     *queueWait,
		SimTimeout:    *simTimeout,
		EnablePprof:   *enablePprof,
		Trace:         rec,
		Jobs:          orch,
		Cluster:       coord,
		Stream:        hub,
	})

	// baseCtx underlies every request context: cancelling it (when the
	// drain deadline passes) makes in-flight simulations return partial
	// results so Shutdown can finish.
	baseCtx, cancelInflight := context.WithCancel(context.Background())
	defer cancelInflight()

	srv := &http.Server{
		Addr:        *addr,
		Handler:     apiSrv.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		ReadTimeout: 30 * time.Second,
		// Must outlive the simulation deadline or responses are cut off.
		WriteTimeout: *simTimeout + 30*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		cat := scenario.BuildCatalog()
		log.Printf("citadel-server listening on %s (max %d concurrent simulations, sim timeout %s, metrics at /metrics, pprof %v, %d schemes + %d fault models at /api/v1/scenarios)",
			*addr, apiSrv.Capacity(), *simTimeout, *enablePprof, len(cat.Schemes), len(cat.FaultModels))
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	log.Printf("shutdown: draining %d in-flight simulations (up to %s)", apiSrv.InFlight(), *drainTimeout)
	// readyz now reports 503 so load balancers stop routing here, and
	// every SSE subscriber receives a terminal drain event instead of a
	// silently dying connection.
	apiSrv.Drain()

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()

	if orch != nil {
		// Stop the orchestrator first: running campaigns checkpoint their
		// completed chunks and park as queued, so the next start resumes
		// them instead of replaying from trial zero. Distributed campaigns
		// see their context cancel, which aborts their leases cleanly.
		if err := orch.Close(drainCtx); err != nil {
			log.Printf("shutdown: job orchestrator: %v", err)
		}
	}
	if coord != nil {
		coord.Close()
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Graceful drain expired: cancel the simulations so handlers
			// flush partial results, then give them a moment to write.
			log.Printf("shutdown: drain deadline passed, cancelling in-flight simulations")
			cancelInflight()
			flushCtx, cancelFlush := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancelFlush()
			if err := srv.Shutdown(flushCtx); err != nil {
				log.Printf("shutdown: forcing close: %v", err)
				srv.Close()
			}
		} else {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Printf("citadel-server stopped")
}
