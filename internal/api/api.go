// Package api exposes the simulators over HTTP/JSON so experiment runners
// (notebooks, sweep scripts, dashboards) can drive them remotely. The
// handler is stdlib-only; cmd/citadel-server mounts it.
//
// The server is built to degrade gracefully under load and partial
// failure: simulation routes run under a bounded concurrency semaphore
// (excess requests are shed with 429 and a Retry-After hint instead of
// piling up goroutines), every run is bounded by a per-run deadline and
// the request context (a disconnected client cancels its run), POST
// bodies are size-capped, panics are recovered into 500s, and cancelled
// runs return the trials completed so far marked "partial" rather than
// discarding the work.
package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	citadel "repro"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/stream"
)

// Server-level metrics, exposed at GET /metrics alongside the engine
// metrics. They are process-wide: multiple Server instances (as in tests)
// share them, which is why acquire/release updates the gauge with paired
// deltas instead of overwriting it.
var (
	mHTTPRequests = obs.Default().Counter("citadel_api_requests_total",
		"HTTP requests served by the API.")
	mSimRuns = obs.Default().Counter("citadel_api_sim_runs_total",
		"Simulation runs started via the API.")
	mSimShed = obs.Default().Counter("citadel_api_shed_total",
		"Simulation requests shed with 429 at capacity.")
	mInFlight = obs.Default().Gauge("citadel_api_inflight_runs",
		"Simulation runs currently executing.")
	mNotModified = obs.Default().Counter("citadel_api_not_modified_total",
		"Conditional GETs answered 304 from the content-key ETag, body skipped.")
)

// etagMatches reports whether an If-None-Match header value matches the
// given strong ETag. Clients may send a comma-separated list or "*".
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, c := range strings.Split(ifNoneMatch, ",") {
		c = strings.TrimSpace(c)
		// A weak validator still matches a strong ETag for GET
		// revalidation (RFC 9110 §8.8.3.2 weak comparison).
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// Options tunes the server's robustness envelope. The zero value selects
// production-safe defaults.
type Options struct {
	// MaxConcurrent bounds simultaneously executing simulation runs;
	// excess requests wait up to QueueWait for a slot and are then shed
	// with 429 (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueWait is how long a simulation request may wait for a free
	// slot before being shed (default 2s; negative sheds immediately).
	QueueWait time.Duration
	// SimTimeout is the wall-clock budget of one simulation run; a run
	// that hits it returns its partial result (default 5m; negative
	// disables the deadline).
	SimTimeout time.Duration
	// MaxBodyBytes caps POST request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Logf sinks server logs (default log.Printf).
	Logf func(format string, args ...any)
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// profiling. Off by default; enable only on trusted networks.
	EnablePprof bool
	// Trace, when non-nil, is the process flight recorder: simulation runs
	// record sampled spans into it (tagged with their X-Run-Id), and the
	// retained events are served at GET /debug/trace as Chrome trace-event
	// JSON (?format=text for a line dump).
	Trace *trace.Recorder
	// Jobs, when non-nil, mounts the asynchronous campaign routes under
	// /api/v1/jobs (see jobs.go). Job submission bypasses the
	// MaxConcurrent semaphore — the orchestrator enforces its own worker
	// and queue bounds — so a saturated synchronous pool never blocks an
	// async submit.
	Jobs *jobs.Orchestrator
	// Cluster, when non-nil, mounts the distributed-campaign coordinator
	// routes under /api/v1/cluster (see cluster.go): workers pull chunk
	// leases, heartbeat them, and deliver results here. Like the job
	// routes, they bypass the simulation-slot semaphore — a heartbeat
	// stalled behind a saturated sim pool would expire healthy leases.
	Cluster *cluster.Coordinator
	// Stream, when non-nil (and Jobs is set), mounts the SSE route
	// GET /api/v1/jobs/{id}/events (see stream.go). The orchestrator
	// must publish into the same hub (jobs.Options.Stream) or
	// subscribers will see only keepalives. Drain broadcasts a terminal
	// drain event to every subscriber.
	Stream *stream.Hub
	// StreamKeepAlive is the SSE comment-frame interval that keeps idle
	// streaming connections from being reaped by proxies (default 15s).
	StreamKeepAlive time.Duration
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueWait == 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.SimTimeout == 0 {
		o.SimTimeout = 5 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.StreamKeepAlive <= 0 {
		o.StreamKeepAlive = 15 * time.Second
	}
	return o
}

// Server holds the API's concurrency and lifecycle state.
type Server struct {
	opts     Options
	sem      chan struct{}
	draining atomic.Bool
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{opts: opts, sem: make(chan struct{}, opts.MaxConcurrent)}
}

// Handler returns an API handler with default Options.
func Handler() http.Handler { return New(Options{}).Handler() }

// Capacity returns the simulation-slot count.
func (s *Server) Capacity() int { return cap(s.sem) }

// InFlight returns the number of simulation runs currently executing.
func (s *Server) InFlight() int { return len(s.sem) }

// Drain marks the server not-ready (readyz turns 503) so load balancers
// stop routing new work; in-flight runs continue. With a stream hub it
// also broadcasts a terminal drain event so every SSE subscriber learns
// the server is going away instead of watching a silent connection die.
// cmd/citadel-server calls this on SIGTERM before http.Server.Shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	if s.opts.Stream != nil {
		s.opts.Stream.Drain(map[string]any{"status": "draining"})
	}
}

// Handler returns the routed http.Handler wrapped in panic recovery.
//
// Routes:
//
//	GET  /api/v1/healthz      liveness probe
//	GET  /api/v1/readyz       readiness probe (503 while draining)
//	GET  /api/v1/schemes      list protection schemes
//	GET  /api/v1/benchmarks   list workload profiles
//	GET  /api/v1/scenarios    scenario-registry catalog (schemes + fault models)
//	GET  /api/v1/overhead     Citadel storage-overhead accounting
//	POST /api/v1/reliability  run a Monte Carlo study
//	POST /api/v1/performance  run the timing/power model
//	POST /api/v1/jobs         submit an async campaign (only with Options.Jobs)
//	GET  /api/v1/jobs         list jobs (only with Options.Jobs)
//	GET  /api/v1/jobs/{id}    job status/progress/result (only with Options.Jobs)
//	DELETE /api/v1/jobs/{id}  cancel a job (only with Options.Jobs)
//	POST /api/v1/cluster/lease      worker pulls a chunk lease (only with Options.Cluster)
//	POST /api/v1/cluster/heartbeat  worker extends a lease (only with Options.Cluster)
//	POST /api/v1/cluster/complete   worker delivers a chunk (only with Options.Cluster)
//	GET  /api/v1/cluster/workers    worker fleet view (only with Options.Cluster)
//	GET  /metrics             Prometheus text metrics (engine + API)
//	GET  /debug/trace         flight-recorder dump (only with Options.Trace)
//	GET  /debug/pprof/...     live profiling (only with Options.EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /api/v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /api/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /api/v1/overhead", s.handleOverhead)
	mux.HandleFunc("POST /api/v1/reliability", s.handleReliability)
	mux.HandleFunc("POST /api/v1/performance", s.handlePerformance)
	if s.opts.Jobs != nil {
		mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /api/v1/jobs", s.handleJobList)
		mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
		mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
		if s.opts.Stream != nil {
			mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
		}
	}
	if s.opts.Cluster != nil {
		mux.HandleFunc("POST "+cluster.LeasePath, s.handleClusterLease)
		mux.HandleFunc("POST "+cluster.HeartbeatPath, s.handleClusterHeartbeat)
		mux.HandleFunc("POST "+cluster.CompletePath, s.handleClusterComplete)
		mux.HandleFunc("GET "+cluster.WorkersPath, s.handleClusterWorkers)
	}
	mux.Handle("GET /metrics", obs.Default().Handler())
	if s.opts.Trace.Enabled() {
		mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	}
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Gzip sits inside the recoverer: large JSON results and /metrics
	// scrapes compress when the client accepts it, while event streams
	// and small bodies pass through (see obs.GzipHandler).
	return s.recoverer(obs.GzipHandler(mux))
}

// statusWriter tracks whether a response has been started, so the panic
// recoverer knows if it can still write an error body.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (SSE) through the recoverer.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		sw.wrote = true
		f.Flush()
	}
}

// recoverer converts handler panics into logged 500s instead of killing
// the connection (and, pre-Go-1.8-style, the process).
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mHTTPRequests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.opts.Logf("api: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if !sw.wrote {
					s.writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// writeJSON sends v with the proper content type. Encoding failures past
// the status line can only be logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.opts.Logf("api: encoding response: %v", err)
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON reads a size-capped JSON body into v, answering 413 for
// oversized bodies and 400 for malformed ones. A field v does not have is
// malformed: a misspelled knob must not run (or hit a cache entry) at its
// zero value.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		} else {
			s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

// acquire reserves a simulation slot, waiting up to QueueWait. When the
// server is saturated it answers 429 with a Retry-After hint and reports
// false — backpressure instead of unbounded pile-up.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	grant := func() func() {
		mInFlight.Inc()
		return func() {
			mInFlight.Dec()
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return grant(), true
	default:
	}
	if s.opts.QueueWait > 0 {
		t := time.NewTimer(s.opts.QueueWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
			return grant(), true
		case <-r.Context().Done():
			// Client gave up while queued; the response goes nowhere.
		case <-t.C:
		}
	}
	mSimShed.Inc()
	retry := int(s.opts.QueueWait / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.writeError(w, http.StatusTooManyRequests,
		"server at simulation capacity (%d runs in flight)", cap(s.sem))
	return nil, false
}

// simContext derives the run context: the request context (a client
// disconnect cancels the run) bounded by SimTimeout.
func (s *Server) simContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.SimTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.SimTimeout)
	}
	return context.WithCancel(r.Context())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	body := map[string]any{
		"status":   "ready",
		"inFlight": s.InFlight(),
		"capacity": s.Capacity(),
	}
	if s.opts.Jobs != nil {
		body["jobQueueDepth"] = s.opts.Jobs.QueueDepth()
		body["jobQueueCap"] = s.opts.Jobs.QueueCap()
	}
	if s.opts.Cluster != nil {
		body["liveWorkers"] = s.opts.Cluster.LiveWorkers()
	}
	if s.opts.Stream != nil {
		body["streamSubscribers"] = s.opts.Stream.Subscribers()
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	schemes := citadel.Schemes()
	names := make([]string, 0, len(schemes))
	for _, sc := range schemes {
		names = append(names, sc.String())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"schemes": names})
}

// benchmarksBody renders the static benchmark catalog once and derives a
// strong ETag from its content hash, so repeat polls revalidate with 304
// instead of re-marshalling the same bytes.
var benchmarksBody = sync.OnceValues(func() ([]byte, string) {
	type bench struct {
		Name  string  `json:"name"`
		Suite string  `json:"suite"`
		MPKI  float64 `json:"mpki"`
		WBPKI float64 `json:"wbpki"`
	}
	profiles := citadel.Benchmarks()
	out := make([]bench, 0, len(profiles))
	for _, b := range profiles {
		out = append(out, bench{Name: b.Name, Suite: b.Suite.String(), MPKI: b.MPKI, WBPKI: b.WBPKI})
	}
	body, err := json.Marshal(map[string]any{"benchmarks": out})
	if err != nil {
		panic(err) // static catalog of plain structs; cannot fail
	}
	sum := sha256.Sum256(body)
	return append(body, '\n'), store.ETag(hex.EncodeToString(sum[:]))
})

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	body, etag := benchmarksBody()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=60")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		mNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// scenariosBody renders the scenario-registry catalog once and derives a
// strong ETag from its content hash. Registration happens in init
// functions, so the registry is immutable by the time a request arrives
// and the body can be cached for the process lifetime, exactly like the
// benchmark catalog.
var scenariosBody = sync.OnceValues(func() ([]byte, string) {
	body, err := json.Marshal(scenario.BuildCatalog())
	if err != nil {
		panic(err) // static catalog of plain structs; cannot fail
	}
	sum := sha256.Sum256(body)
	return append(body, '\n'), store.ETag(hex.EncodeToString(sum[:]))
})

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	body, etag := scenariosBody()
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=60")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		mNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleOverhead(w http.ResponseWriter, _ *http.Request) {
	ov := citadel.ComputeStorageOverhead(citadel.DefaultConfig())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"metadataFraction":   ov.MetadataFraction,
		"parityBankFraction": ov.ParityBankFraction,
		"totalFraction":      ov.Total(),
		"sramBytes":          ov.SRAMBytes,
	})
}

// ReliabilityResponse mirrors citadel.Result. Partial marks a run cut
// short by cancellation or the per-run deadline: Trials then counts only
// the completed trials and the statistics cover those. RunID echoes the
// X-Run-Id header so the run's log lines, forensic exemplars, and trace
// events can be correlated from the body alone.
type ReliabilityResponse struct {
	RunID       string             `json:"runId"`
	Policy      string             `json:"policy"`
	Trials      int                `json:"trials"`
	Failures    int                `json:"failures"`
	Probability float64            `json:"probability"`
	CI95        float64            `json:"ci95"`
	ByYear      []float64          `json:"probabilityByYear"`
	Causes      map[string]int     `json:"causes,omitempty"`
	Breakdown   map[string]int     `json:"breakdown,omitempty"`
	Exemplars   []citadel.Forensic `json:"exemplars,omitempty"`
	// ScenarioStats carries scenario-plugin counters (replica-fetch
	// traffic, rowhammer episodes, ...) when the selected scenario
	// produced any.
	ScenarioStats map[string]float64 `json:"scenarioStats,omitempty"`
	Partial       bool               `json:"partial,omitempty"`
}

// maxTrialsPerCall bounds request cost.
const maxTrialsPerCall = 5_000_000

// maxRequestsPerCall bounds the cost of a performance run.
const maxRequestsPerCall = 2_000_000

// maxExemplarsPerCall bounds the forensic payload of one response.
const maxExemplarsPerCall = 64

// handleReliability runs a jobs.ReliabilitySpec synchronously, through
// the spec's one mapping onto the library's options. It takes every
// field a campaign takes but checkpointTrials, which only shapes a
// campaign's chunks, plus the adaptive and forensic fields a campaign
// rejects.
func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	var spec jobs.ReliabilitySpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	if spec.CheckpointTrials != 0 {
		s.writeError(w, http.StatusBadRequest, "checkpointTrials shapes a durable campaign (POST /api/v1/jobs); a synchronous run takes none")
		return
	}
	if spec.MaxExemplars < 0 || spec.MaxExemplars > maxExemplarsPerCall {
		s.writeError(w, http.StatusBadRequest, "maxExemplars must be in [0, %d]", maxExemplarsPerCall)
		return
	}
	if spec.Trials == 0 {
		spec.Trials = 10000
	}
	if spec.Trials > maxTrialsPerCall || spec.MaxTrials > maxTrialsPerCall {
		s.writeError(w, http.StatusBadRequest, "trials capped at %d per call", maxTrialsPerCall)
		return
	}
	if spec.TargetFailures > 0 && spec.MaxTrials == 0 {
		// The engine's default cap, 10 × trials, would exceed the per-call
		// bound for trials above a tenth of it.
		spec.MaxTrials = min(10*spec.Trials, maxTrialsPerCall)
	}
	opts := spec.Options()
	opts.Trace = s.opts.Trace
	if err := opts.Validate(citadel.Scheme(spec.Scheme)); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.simContext(r)
	defer cancel()
	runID := obs.NewRunID()
	opts.RunID = runID
	w.Header().Set("X-Run-Id", runID)
	mSimRuns.Inc()
	start := time.Now()
	s.opts.Logf("api: run=%s kind=reliability scheme=%s trials=%d targetFailures=%d seed=%d start",
		runID, spec.Scheme, spec.Trials, spec.TargetFailures, spec.Seed)
	res, err := citadel.Simulate(ctx, opts, citadel.Scheme(spec.Scheme))
	if err != nil {
		// Plugin builders reject parameter values (not just keys) at build
		// time; surface that as a client error.
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.opts.Logf("api: run=%s kind=reliability scheme=%s trials=%d failures=%d partial=%t duration=%s done",
		runID, spec.Scheme, res.Trials, res.Failures, res.Partial, time.Since(start).Round(time.Millisecond))
	byYear := make([]float64, len(res.FailuresByYear))
	for y := range byYear {
		byYear[y] = res.ProbabilityByYear(y + 1)
	}
	s.writeJSON(w, http.StatusOK, ReliabilityResponse{
		RunID:         runID,
		Policy:        res.Policy,
		Trials:        res.Trials,
		Failures:      res.Failures,
		Probability:   res.Probability(),
		CI95:          res.CI95(),
		ByYear:        byYear,
		Causes:        res.CauseCounts,
		Breakdown:     res.Breakdown,
		Exemplars:     res.Exemplars,
		ScenarioStats: res.ScenarioStats,
		Partial:       res.Partial,
	})
}

// PerformanceResponse mirrors citadel.PerfResult plus the baseline ratio.
// Partial marks a run cut short by cancellation or the per-run deadline;
// the normalized ratios then cover the completed request prefix.
type PerformanceResponse struct {
	RunID            string  `json:"runId"`
	Benchmark        string  `json:"benchmark"`
	Cycles           uint64  `json:"cycles"`
	NormalizedTime   float64 `json:"normalizedTime"`
	ActivePowerWatts float64 `json:"activePowerWatts"`
	NormalizedPower  float64 `json:"normalizedPower"`
	RowHitRate       float64 `json:"rowHitRate"`
	AvgReadLatency   float64 `json:"avgReadLatencyCycles"`
	// ReadPhases attributes the average demand-read latency (memory-bus
	// cycles per read) to queueing, activation, column access, bus
	// contention, and burst transfer.
	ReadPhases citadel.ReadPhases `json:"readPhases"`
	// AvgParityOverhead is the mean background cycles per parity-touching
	// writeback (zero without 3DP protection).
	AvgParityOverhead float64 `json:"avgParityOverheadCycles"`
	Partial           bool    `json:"partial,omitempty"`
}

// handlePerformance runs a jobs.PerformanceSpec synchronously, through
// the one implementation performance jobs run.
func (s *Server) handlePerformance(w http.ResponseWriter, r *http.Request) {
	var p jobs.PerformanceSpec
	if !s.decodeJSON(w, r, &p) {
		return
	}
	spec := jobs.Spec{Performance: &p}
	if err := spec.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if p.Requests > maxRequestsPerCall {
		s.writeError(w, http.StatusBadRequest, "requests capped at %d per call", maxRequestsPerCall)
		return
	}
	p = *spec.Normalize().Performance
	release, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.simContext(r)
	defer cancel()
	runID := obs.NewRunID()
	w.Header().Set("X-Run-Id", runID)
	mSimRuns.Inc()
	start := time.Now()
	s.opts.Logf("api: run=%s kind=performance benchmark=%s striping=%s protection=%s requests=%d seed=%d start",
		runID, p.Benchmark, p.Striping, p.Protection, p.Requests, p.Seed)
	pr, err := jobs.RunPerformance(ctx, &p, runID, s.opts.Trace)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	base, res := pr.Base, pr.Run
	s.opts.Logf("api: run=%s kind=performance benchmark=%s requestsDone=%d partial=%t duration=%s done",
		runID, p.Benchmark, res.RequestsDone, base.Partial || res.Partial, time.Since(start).Round(time.Millisecond))
	// Guard the ratios: a cancelled base run can have zero cycles, and
	// NaN/Inf are not encodable as JSON.
	normTime, normPower := 0.0, 0.0
	if base.Cycles > 0 {
		normTime = float64(res.Cycles) / float64(base.Cycles)
	}
	if base.ActivePowerWatts > 0 {
		normPower = res.ActivePowerWatts / base.ActivePowerWatts
	}
	s.writeJSON(w, http.StatusOK, PerformanceResponse{
		RunID:             runID,
		Benchmark:         res.Benchmark,
		Cycles:            res.Cycles,
		NormalizedTime:    normTime,
		ActivePowerWatts:  res.ActivePowerWatts,
		NormalizedPower:   normPower,
		RowHitRate:        res.RowHitRate,
		AvgReadLatency:    res.AvgReadLatencyCycles,
		ReadPhases:        res.ReadPhases,
		AvgParityOverhead: res.AvgParityOverheadCycles,
		Partial:           base.Partial || res.Partial,
	})
}

// handleDebugTrace serves the process flight recorder. The default is
// Chrome trace-event JSON (open in Perfetto / chrome://tracing);
// ?format=text renders a line dump for quick terminal inspection.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := s.opts.Trace.WriteChromeTrace(w); err != nil {
			s.opts.Logf("api: writing trace: %v", err)
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.opts.Trace.WriteText(w); err != nil {
			s.opts.Logf("api: writing trace: %v", err)
		}
	default:
		s.writeError(w, http.StatusBadRequest, "unknown format %q (want json or text)", r.URL.Query().Get("format"))
	}
}
