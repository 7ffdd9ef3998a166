package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// scrapeMetrics fetches and returns the /metrics body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts an un-labelled sample value from Prometheus text.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestMetricsScrapeDuringLiveSimulation is the acceptance check for the
// observability layer: while a reliability run is in flight, /metrics must
// show the in-flight gauge up and the engine trial counter moving.
func TestMetricsScrapeDuringLiveSimulation(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, Logf: quietLogf})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	before := scrapeMetrics(t, srv.URL)
	trialsBefore, _ := metricValue(before, "citadel_faultsim_trials_total")
	runsBefore, _ := metricValue(before, "citadel_api_sim_runs_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(jobs.ReliabilitySpec{Scheme: "None", Trials: maxTrialsPerCall, Seed: 1})
		req := httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	for i := 0; s.InFlight() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.InFlight() != 1 {
		t.Fatal("run never acquired a simulation slot")
	}

	// Workers flush tallies every few hundred trials, so the counter must
	// move within the deadline while the run is still alive.
	deadline := time.Now().Add(15 * time.Second)
	sawLive := false
	for time.Now().Before(deadline) {
		body := scrapeMetrics(t, srv.URL)
		trials, ok := metricValue(body, "citadel_faultsim_trials_total")
		inflight, ok2 := metricValue(body, "citadel_api_inflight_runs")
		active, ok3 := metricValue(body, "citadel_faultsim_runs_active")
		if ok && ok2 && ok3 && trials > trialsBefore && inflight >= 1 && active >= 1 {
			sawLive = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawLive {
		t.Fatal("metrics never showed the live run (trials moving + in-flight gauge up)")
	}

	cancel()
	<-done

	after := scrapeMetrics(t, srv.URL)
	for _, name := range []string{
		"citadel_faultsim_trials_total",
		"citadel_faultsim_failures_total",
		"citadel_faultsim_scrub_passes_total",
		"citadel_api_requests_total",
		"citadel_api_sim_runs_total",
	} {
		if _, ok := metricValue(after, name); !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if runs, _ := metricValue(after, "citadel_api_sim_runs_total"); runs < runsBefore+1 {
		t.Errorf("sim runs counter %v, want > %v", runs, runsBefore)
	}
	if inflight, _ := metricValue(after, "citadel_api_inflight_runs"); inflight != 0 {
		t.Errorf("in-flight gauge %v after run completed, want 0", inflight)
	}
}

func TestMetricsExposePerformanceCounters(t *testing.T) {
	srv := testServer(t)
	before := scrapeMetrics(t, srv.URL)
	reqBefore, _ := metricValue(before, "citadel_perfsim_requests_total")

	var out PerformanceResponse
	resp := postJSON(t, srv.URL+"/api/v1/performance", jobs.PerformanceSpec{
		Benchmark: "mcf", Requests: 5000, Seed: 3,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	after := scrapeMetrics(t, srv.URL)
	// The handler runs a baseline plus the requested config: 10000 total.
	reqAfter, ok := metricValue(after, "citadel_perfsim_requests_total")
	if !ok || reqAfter < reqBefore+10000 {
		t.Errorf("perfsim requests counter %v, want >= %v", reqAfter, reqBefore+10000)
	}
	for _, want := range []string{
		"# TYPE citadel_perfsim_read_latency_cycles histogram",
		"citadel_perfsim_read_latency_cycles_bucket{le=\"+Inf\"}",
		"citadel_perfsim_read_latency_cycles_sum",
		"citadel_perfsim_read_latency_cycles_count",
		"citadel_perfsim_row_hits_total",
		"# HELP citadel_faultsim_trials_total",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunIDHeaderAndStructuredLogs(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := New(Options{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(jobs.ReliabilitySpec{Scheme: "None", Trials: 1000, Seed: 1})
	resp, err := http.Post(srv.URL+"/api/v1/reliability", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		t.Fatal("response missing X-Run-Id header")
	}

	mu.Lock()
	defer mu.Unlock()
	var start, done bool
	for _, l := range logs {
		if strings.Contains(l, "run="+runID) {
			if strings.HasSuffix(l, "start") {
				start = true
			}
			if strings.HasSuffix(l, "done") {
				done = true
			}
		}
	}
	if !start || !done {
		t.Errorf("missing structured run logs for %s (start=%t done=%t): %v", runID, start, done, logs)
	}
}

func TestPerformanceRunIDHeader(t *testing.T) {
	srv := testServer(t)
	var out PerformanceResponse
	resp := postJSON(t, srv.URL+"/api/v1/performance", jobs.PerformanceSpec{
		Benchmark: "gcc", Requests: 2000, Seed: 1,
	}, &out)
	if resp.Header.Get("X-Run-Id") == "" {
		t.Error("performance response missing X-Run-Id header")
	}
}

func TestPprofGatedByOption(t *testing.T) {
	off := httptest.NewServer(New(Options{Logf: quietLogf}).Handler())
	t.Cleanup(off.Close)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(New(Options{EnablePprof: true, Logf: quietLogf}).Handler())
	t.Cleanup(on.Close)
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof enabled: status %d, body %q", resp2.StatusCode, string(body[:min(len(body), 200)]))
	}
}
