package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	citadel "repro"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/faultsim"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/stream"
)

// serviceWorkload drives the campaign service over HTTP on a loopback
// listener, wired as `citadel-server -job-dir DIR [-cluster]` wires it,
// with the server's default settings. Load is a closed loop of
// loadClients clients, each on one connection: callers submit a campaign
// and wait for its result before the next.
type serviceWorkload struct {
	cluster    bool // lease chunks to clusterWorkers loopback workers
	scaled     bool // report times scaled to the reference host (calibrate.go)
	trials     int  // per campaign
	checkpoint int  // trials per chunk
	workers    int  // engine workers per chunk
}

// service-local spends its time computing, so its times are scaled to the
// reference host; service-cluster's are mostly idle polls, so they are not.
// Each chunk ends in synced writes, whose time swings with the disk traffic
// of other machines: 25,000-trial chunks keep that share of a campaign low.
var serviceLocal = serviceWorkload{scaled: true, trials: 50000, checkpoint: 25000, workers: engineWorkers}

var serviceCluster = serviceWorkload{cluster: true, trials: 40000, checkpoint: 10000, workers: 1}

const (
	loadClients    = 2
	clusterWorkers = 2
	// clientRNGStream seeds each client's choice of cached resubmissions.
	clientRNGStream = 1 << 31
)

// scale returns the median of n host-speed calibrations (calibrate.go)
// for a scaled workload, and 1 for the others.
func (w serviceWorkload) scale(n int) float64 {
	if !w.scaled {
		return 1
	}
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = hostScale()
	}
	return median(scales)
}

// spec returns the campaign a seed selects.
func (w serviceWorkload) spec(cfg runConfig, seed int64, traced bool) jobs.ReliabilitySpec {
	s := jobs.ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           cfg.trials(w.trials),
		TSVFIT:           1430,
		Seed:             seed,
		Workers:          w.workers,
		CheckpointTrials: cfg.trials(w.checkpoint),
	}
	if traced {
		s.Scheme, s.FaultModel = tracedPrefix+s.Scheme, tracedModel
	}
	return s
}

// svcStack is one running service.
type svcStack struct {
	dir         string
	base        string
	orch        *jobs.Orchestrator
	coord       *cluster.Coordinator
	srv         *http.Server
	served      chan struct{} // closed when srv.Serve returns
	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
	transports  []*http.Transport
}

func (w serviceWorkload) start(cfg runConfig) (*svcStack, error) {
	dir, err := os.MkdirTemp(cfg.scratch, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	s := &svcStack{dir: dir}
	st, err := store.Open(dir, store.Options{MaxBytes: 256 << 20, Logf: quiet})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hub := stream.New(stream.Options{Logf: quiet})
	opts := jobs.Options{Store: st, Workers: 1, QueueDepth: 64, Stream: hub, Logf: quiet}
	if w.cluster {
		s.coord = cluster.New(cluster.Options{LeaseTTL: 15 * time.Second, NoWorkerGrace: 10 * time.Second, Logf: quiet})
		opts.ChunkExec = s.coord
		if cfg.trace {
			opts.ChunkExec = tracedExecutor{s.coord}
		}
	}
	s.orch = jobs.New(opts)
	s.orch.Recover()
	apiSrv := api.New(api.Options{
		QueueWait:  2 * time.Second,
		SimTimeout: 5 * time.Minute,
		Jobs:       s.orch,
		Cluster:    s.coord,
		Stream:     hub,
		Logf:       quiet,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:      apiSrv.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5*time.Minute + 30*time.Second,
		ErrorLog:     log.New(io.Discard, "", 0),
	}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	if w.cluster {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWorkers = cancel
		for i := 0; i < clusterWorkers; i++ {
			tr := http.DefaultTransport.(*http.Transport).Clone()
			s.transports = append(s.transports, tr)
			var rt http.RoundTripper = tr
			if cfg.trace {
				rt = &tracedTransport{inner: tr, tid: workerTID + int64(i)}
			}
			wk := cluster.NewWorker(cluster.WorkerOptions{
				BaseURL:      s.base,
				ID:           fmt.Sprintf("bench-w%d", i),
				Client:       &http.Client{Timeout: 30 * time.Second, Transport: rt},
				PollInterval: cfg.size.workerPoll,
				Logf:         quiet,
			})
			s.workersDone.Add(1)
			go func() {
				defer s.workersDone.Done()
				wk.Run(ctx)
			}()
		}
	}
	return s, nil
}

// close stops the workers, orchestrator, coordinator and server, and
// deletes the job store.
func (s *svcStack) close() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workersDone.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.orch.Close(ctx)
	if s.coord != nil {
		s.coord.Close()
	}
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
		}
		<-s.served
	}
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// campaignRecord is one fresh campaign as a client saw it.
type campaignRecord struct {
	traced, ok  bool
	spec        jobs.ReliabilitySpec // as submitted
	norm        jobs.ReliabilitySpec // as normalized by the service
	latency     time.Duration        // POST → terminal frame
	submit      time.Duration
	status      time.Duration
	revalidate  time.Duration
	statusBytes int
	frameGapsMs []float64
	frames      int
	terminalLag time.Duration
	queueWait   time.Duration
	runTime     time.Duration
	result      json.RawMessage
}

// cachedRecord is one resubmission of a finished campaign.
type cachedRecord struct {
	traced  bool
	latency time.Duration
}

// client is one closed-loop load client with its own connection.
type client struct {
	id       int
	base     string
	hc       *http.Client
	tr       *http.Transport
	ops      *tally
	problems []string   // failed output checks, read after the client stops
	rng      *rand.Rand // picks the campaigns to resubmit
}

func newClient(id int, base string, ops *tally) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, ops: ops}
}

func (c *client) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
}

// expect counts one operation as succeeded when it got the wanted status.
func (c *client) expect(op string, resp *http.Response, err error, want int) bool {
	switch {
	case err != nil:
		c.ops.fail(failTransport, "%s: %v", op, err)
	case resp.StatusCode == want:
		c.ops.ok()
		return true
	case resp.StatusCode == http.StatusTooManyRequests:
		c.ops.fail(failShed, "%s: HTTP 429", op)
	default:
		c.ops.fail(failStatus, "%s: HTTP %d, want %d", op, resp.StatusCode, want)
	}
	return false
}

// do sends one request and reads the whole response body.
func (c *client) do(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// submit posts a campaign and decodes the job it returns.
func (c *client) submit(ctx context.Context, spec jobs.ReliabilitySpec) (jobs.Job, bool) {
	var job jobs.Job
	body, err := json.Marshal(api.JobRequest{Reliability: &spec})
	if err != nil {
		c.ops.fail(failTransport, "submit: encoding: %v", err)
		return job, false
	}
	resp, data, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body, nil)
	if !c.expect("submit", resp, err, http.StatusAccepted) {
		return job, false
	}
	if err := json.Unmarshal(data, &job); err != nil {
		c.problem("submit: decoding: %v", err)
		return job, false
	}
	return job, true
}

// campaign submits a fresh campaign, follows its event stream to the
// terminal frame, then fetches the full status and revalidates it.
func (c *client) campaign(ctx context.Context, spec jobs.ReliabilitySpec) campaignRecord {
	rec := campaignRecord{spec: spec, traced: activeTracer.Load() != nil}
	t := activeTracer.Load()
	start := time.Now()
	job, ok := c.submit(ctx, spec)
	rec.submit = time.Since(start)
	t.spanTimes("api.submit", c.tid(), start, start.Add(rec.submit))
	if !ok {
		return rec
	}
	path := "/api/v1/jobs/" + job.ID
	times, final, ok := c.follow(ctx, path+"/events")
	if !ok {
		return rec
	}
	end := times[len(times)-1]
	rec.latency = end.Sub(start)
	t.spanTimes("stream.events", c.tid(), start.Add(rec.submit), end)
	t.spanTimes("campaign", c.tid(), start, end)
	rec.frames = len(times)
	for i := 1; i < len(times); i++ {
		rec.frameGapsMs = append(rec.frameGapsMs, ms(times[i].Sub(times[i-1])))
	}
	rec.terminalLag = end.Sub(final.Finished)
	if final.State != jobs.StateDone {
		c.ops.fail(failJob, "job %s ended %s: %s", job.ID, final.State, final.Error)
		return rec
	}

	t0 := time.Now()
	resp, data, err := c.do(ctx, http.MethodGet, path, nil, nil)
	rec.status = time.Since(t0)
	t.spanTimes("api.status", c.tid(), t0, t0.Add(rec.status))
	if !c.expect("status", resp, err, http.StatusOK) {
		return rec
	}
	rec.statusBytes = len(data)
	var st jobs.Job
	if err := json.Unmarshal(data, &st); err != nil || st.Spec.Reliability == nil {
		c.problem("status %s: decoding: %v", job.ID, err)
		return rec
	}
	var res citadel.Result
	if err := json.Unmarshal(st.Result, &res); err != nil {
		c.problem("status %s: decoding result: %v", job.ID, err)
		return rec
	}
	if st.State != jobs.StateDone || res.Trials != spec.Trials || res.Partial {
		c.problem("job %s: state %s with %d/%d trials (partial=%v)", job.ID, st.State, res.Trials, spec.Trials, res.Partial)
		return rec
	}
	rec.norm, rec.result = *st.Spec.Reliability, st.Result
	rec.queueWait, rec.runTime = st.Started.Sub(st.Created), st.Finished.Sub(st.Started)

	t0 = time.Now()
	resp, _, err = c.do(ctx, http.MethodGet, path, nil, http.Header{"If-None-Match": {resp.Header.Get("ETag")}})
	rec.revalidate = time.Since(t0)
	t.spanTimes("api.revalidate", c.tid(), t0, t0.Add(rec.revalidate))
	rec.ok = c.expect("revalidate", resp, err, http.StatusNotModified)
	return rec
}

// terminalEvents end a job's event stream.
var terminalEvents = map[string]bool{"done": true, "failed": true, "cancelled": true, stream.DrainEvent: true}

// follow reads an event stream to its terminal frame, returning each
// frame's arrival time and the terminal job snapshot.
func (c *client) follow(ctx context.Context, path string) ([]time.Time, jobs.Job, bool) {
	var final jobs.Job
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		c.ops.fail(failTransport, "events: %v", err)
		return nil, final, false
	}
	resp, err := c.hc.Do(req)
	if !c.expect("events", resp, err, http.StatusOK) {
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, final, false
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var times []time.Time
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			c.ops.fail(failTransport, "events: stream ended before a terminal frame: %v", err)
			return nil, final, false
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "" && event != "":
			times = append(times, time.Now())
			if terminalEvents[event] {
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					c.problem("events: decoding the %s frame: %v", event, err)
					return nil, final, false
				}
				// Read to the end so the connection is reused.
				io.Copy(io.Discard, resp.Body)
				return times, final, true
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// resubmit posts a finished campaign again: the service must answer from
// its cache with the original result bytes.
func (c *client) resubmit(ctx context.Context, orig campaignRecord) cachedRecord {
	rec := cachedRecord{traced: activeTracer.Load() != nil}
	t := activeTracer.Load()
	start := time.Now()
	job, ok := c.submit(ctx, orig.spec)
	rec.latency = time.Since(start)
	t.spanTimes("api.cached", c.tid(), start, start.Add(rec.latency))
	if ok && (job.State != jobs.StateDone || !job.Cached || !bytes.Equal(job.Result, orig.result)) {
		c.problem("resubmission of seed %d: state %s cached=%v, result bytes equal=%v",
			orig.spec.Seed, job.State, job.Cached, bytes.Equal(job.Result, orig.result))
	}
	return rec
}

func (c *client) tid() int64 { return clientTID + int64(c.id) }

func (w serviceWorkload) run(ctx context.Context, cfg runConfig, r *report) {
	var (
		setups []float64
		st     *svcStack
	)
	for i := 0; i < cfg.size.setups; i++ {
		scale := w.scale(1)
		t0 := time.Now()
		s, err := w.start(cfg)
		if err != nil {
			r.check(false, "starting the service: %v", err)
			return
		}
		cl := newClient(0, s.base, &r.ops)
		for k := 0; k < 2; k++ {
			rec := cl.campaign(ctx, w.spec(cfg, splitmix(cfg.seed, warmupStream+uint64(k)), false))
			r.check(rec.ok, "warm-up campaign %d failed", k)
		}
		cl.tr.CloseIdleConnections()
		setups = append(setups, time.Since(t0).Seconds()*scale)
		if i == cfg.size.setups-1 {
			st = s
		} else {
			s.close()
		}
	}
	defer st.close()

	clients := make([]*client, loadClients)
	for c := range clients {
		clients[c] = newClient(c, st.base, &r.ops)
		clients[c].rng = rand.New(rand.NewSource(splitmix(cfg.seed, campaignStream(c)+clientRNGStream)))
	}
	// The host's speed is calibrated while the service is idle, just before
	// and just after the measured phase.
	scaleBefore := w.scale(10)
	var (
		fresh     = make([][]campaignRecord, loadClients)
		cached    = make([][]cachedRecord, loadClients)
		perClient = (cfg.size.minCampaigns + loadClients - 1) / loadClients
		start     = time.Now()
		end       = start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		hardEnd   = start.Add(cfg.size.hardLimit)
		wg        sync.WaitGroup
		mem       runtime.MemStats
	)
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			defer cl.tr.CloseIdleConnections()
			for k := 0; ; k++ {
				now := time.Now()
				if now.After(hardEnd) || (now.After(end) && k >= perClient) {
					return
				}
				seed := splitmix(cfg.seed, campaignStream(cl.id)+uint64(k))
				rec := cl.campaign(ctx, w.spec(cfg, seed, activeTracer.Load() != nil))
				fresh[cl.id] = append(fresh[cl.id], rec)
				if k%2 == 1 {
					if orig := fresh[cl.id][cl.rng.Intn(k+1)]; orig.ok {
						cached[cl.id] = append(cached[cl.id], cl.resubmit(ctx, orig))
					}
				}
			}
		}(cl)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var tr *tracer
	var traceStart time.Time
	if cfg.trace {
		// The first half of the traced run is untraced, for
		// trace_overhead_pct; campaigns submitted after the switch name
		// the traced plugins.
		timer := time.NewTimer(time.Until(start.Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))))
		select {
		case <-timer.C:
		case <-done:
			timer.Stop()
		}
		runtime.ReadMemStats(&mem)
		mallocs = mem.Mallocs - mallocs
		tr, traceStart = newTracer(cfg), time.Now()
		activeTracer.Store(tr)
	}
	<-done
	wall, tracedWall := time.Since(start), time.Since(traceStart)
	activeTracer.Store(nil)
	scale := (scaleBefore + w.scale(10)) / 2

	var (
		lat, tracedLat, rawLat []float64
		trials                 int
		all                    []campaignRecord
	)
	for c, recs := range fresh {
		for _, p := range clients[c].problems {
			r.check(false, "%s", p)
		}
		ok := 0
		for k, rec := range recs {
			if !rec.ok {
				continue
			}
			ok++
			if k < perClient {
				r.digestItem(fmt.Sprintf("client %d campaign %d", c, k), rec.result)
			}
			all = append(all, rec)
			if rec.traced {
				tracedLat = append(tracedLat, ms(rec.latency)*scale)
				continue
			}
			lat = append(lat, ms(rec.latency)*scale)
			rawLat = append(rawLat, ms(rec.latency))
			trials += rec.spec.Trials
		}
		r.check(ok >= perClient, "client %d completed %d of %d campaigns", c, ok, perClient)
	}
	if len(fresh[0]) == 0 {
		r.check(false, "client 0 completed no campaign")
		return
	}
	chunks, scrubs := checkRecompute(ctx, r, fresh[0][0])

	if !cfg.trace {
		r.set("trials_per_s", float64(trials)/(wall.Seconds()*scale), len(lat))
		r.setLatency(lat)
		r.set("setup_s", median(setups), len(setups))
		if w.scaled {
			r.note("unscaled host time: campaign p50 %.6g ms; host speed %.3f of the reference", median(rawLat), scale)
		}
		return
	}

	var queue, run, gaps, submit, status, reval, sbytes, frames, lag, cachedMs []float64
	var payloads [][]byte
	for _, rec := range all {
		payloads = append(payloads, rec.result)
		if !rec.traced {
			continue
		}
		queue = append(queue, ms(rec.queueWait))
		run = append(run, ms(rec.runTime))
		gaps = append(gaps, rec.frameGapsMs...)
		submit = append(submit, ms(rec.submit))
		status = append(status, ms(rec.status))
		reval = append(reval, ms(rec.revalidate))
		sbytes = append(sbytes, float64(rec.statusBytes))
		frames = append(frames, float64(rec.frames))
		lag = append(lag, ms(rec.terminalLag))
	}
	for _, recs := range cached {
		for _, rec := range recs {
			if rec.traced {
				cachedMs = append(cachedMs, ms(rec.latency))
			}
		}
	}
	r.set("jobs.queue_wait_ms", median(queue), len(queue))
	r.set("jobs.run_ms", median(run), len(run))
	r.set("jobs.chunk_period_ms", median(gaps), len(gaps))
	r.set("api.submit_ms", median(submit), len(submit))
	r.set("api.status_ms", median(status), len(status))
	r.set("api.revalidate_ms", median(reval), len(reval))
	r.set("api.status_bytes", mean(sbytes), len(sbytes))
	r.set("api.cached_p50_ms", median(cachedMs), len(cachedMs))
	r.set("stream.frames_per_campaign", mean(frames), len(frames))
	r.set("stream.terminal_lag_ms", median(lag), len(lag))

	tr.engineLayers(r)
	tr.clusterLayers(r, clusterWorkers, tracedWall)
	r.set("faultsim.scrub_passes_per_trial", ratio(float64(scrubs), float64(fresh[0][0].spec.Trials)), fresh[0][0].spec.Trials)
	r.set("faultsim.allocs_per_ktrial", ratio(float64(mallocs)*1000, float64(trials)), trials)
	merges := tr.svc.chunkRuns
	if !w.cluster {
		merges = [][]citadel.Result{chunks}
	}
	replayMerge(r, merges)
	replayStore(r, cfg.scratch, payloads)
	r.set("trace_overhead_pct", (ratio(median(tracedLat), median(lat))-1)*100, len(tracedLat))
	r.note("campaign_p50_ms untraced %.6g (n=%d), traced %.6g (n=%d)", median(lat), len(lat), median(tracedLat), len(tracedLat))
	writeTrace(r, tr, cfg)
}

// checkRecompute reruns a campaign in-process, chunk by chunk through
// jobs.RunChunk folded with faultsim.Merge, and checks that the service
// returned exactly that result. It returns the chunk results and the
// campaign's scrub passes.
func checkRecompute(ctx context.Context, r *report, rec campaignRecord) ([]citadel.Result, int64) {
	if !rec.ok {
		r.check(false, "the first campaign failed, so it cannot be recomputed")
		return nil, 0
	}
	spec := rec.norm
	var (
		total  citadel.Result
		chunks []citadel.Result
		scrubs int64
	)
	for i := 0; i*spec.CheckpointTrials < spec.Trials; i++ {
		res, err := jobs.RunChunk(ctx, &spec, i, "recompute", func(p citadel.RunProgress) {
			if p.Done {
				scrubs += p.ScrubPasses
			}
		})
		if err != nil {
			r.check(false, "recomputing chunk %d: %v", i, err)
			return nil, 0
		}
		total = faultsim.Merge(total, res)
		total.Policy = res.Policy
		chunks = append(chunks, res)
	}
	var fromAPI, local citadel.Result
	data, err := json.Marshal(total)
	if err == nil {
		err = json.Unmarshal(data, &local)
	}
	if err == nil {
		err = json.Unmarshal(rec.result, &fromAPI)
	}
	r.check(err == nil && reflect.DeepEqual(fromAPI, local),
		"the service's result for seed %d differs from the in-process recomputation (err=%v)", spec.Seed, err)
	return chunks, scrubs
}
