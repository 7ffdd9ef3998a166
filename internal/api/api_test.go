package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// quietLogf silences server logs in tests that exercise error paths.
func quietLogf(string, ...any) {}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSchemesEndpoint(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Schemes []string `json:"schemes"`
	}
	resp := getJSON(t, srv.URL+"/api/v1/schemes", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Schemes) != 12 {
		t.Errorf("schemes = %d, want 12", len(out.Schemes))
	}
	found := false
	for _, s := range out.Schemes {
		if s == "Citadel" {
			found = true
		}
	}
	if !found {
		t.Error("Citadel missing from scheme list")
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	getJSON(t, srv.URL+"/api/v1/benchmarks", &out)
	if len(out.Benchmarks) != 38 {
		t.Errorf("benchmarks = %d, want 38", len(out.Benchmarks))
	}
}

func TestOverheadEndpoint(t *testing.T) {
	srv := testServer(t)
	var out map[string]float64
	getJSON(t, srv.URL+"/api/v1/overhead", &out)
	if total := out["totalFraction"]; total < 0.13 || total > 0.15 {
		t.Errorf("total overhead = %v", total)
	}
}

func TestReliabilityEndpoint(t *testing.T) {
	srv := testServer(t)
	var out ReliabilityResponse
	resp := postJSON(t, srv.URL+"/api/v1/reliability", ReliabilityRequest{
		Scheme: "None", Trials: 3000, Seed: 1,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Trials != 3000 || out.Policy != "None" {
		t.Errorf("response %+v", out)
	}
	if out.Probability <= 0 {
		t.Error("unprotected baseline showed no failures")
	}
	if len(out.ByYear) != 7 {
		t.Errorf("byYear len %d", len(out.ByYear))
	}
}

func TestReliabilityAdaptiveEndpoint(t *testing.T) {
	srv := testServer(t)
	var out ReliabilityResponse
	postJSON(t, srv.URL+"/api/v1/reliability", ReliabilityRequest{
		Scheme: "1DP", Trials: 2000, TargetFailures: 3, MaxTrials: 100000, Seed: 2,
	}, &out)
	if out.Failures < 3 && out.Trials < 100000 {
		t.Errorf("adaptive run stopped early: %+v", out)
	}
}

// TestReliabilityAdaptiveCapBounded: an adaptive request that leaves
// maxTrials unset stops at the per-call trial cap, not at the engine's
// default of 10 × trials.
func TestReliabilityAdaptiveCapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("5M Monte Carlo trials; skipped in -short")
	}
	srv := testServer(t)
	var out ReliabilityResponse
	resp := postJSON(t, srv.URL+"/api/v1/reliability", ReliabilityRequest{
		Scheme: "None", Trials: 600_000, TargetFailures: 1 << 30, Seed: 1,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Trials > maxTrialsPerCall || out.Partial {
		t.Errorf("adaptive run answered %d trials (partial %t), want at most the %d per-call cap",
			out.Trials, out.Partial, maxTrialsPerCall)
	}
}

func TestReliabilityValidation(t *testing.T) {
	srv := testServer(t)
	cases := []ReliabilityRequest{
		{Scheme: "NoSuchScheme"},
		{Scheme: "3DP", Trials: 100_000_000},
		{Scheme: "3DP", Trials: 1000, TargetFailures: 10, MaxTrials: maxTrialsPerCall + 1},
		{Scheme: "1DP", Trials: 1000, MaxTrials: 5},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/api/v1/reliability", c, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %+v: status %d, want 400", c, resp.StatusCode)
		}
	}
	// Malformed JSON, and a misspelled field that would otherwise run at
	// 0 TSV FIT.
	for _, body := range []string{"{nope", `{"scheme":"Citadel","trials":200,"tsvFitPerDie":1430}`} {
		resp, err := http.Post(srv.URL+"/api/v1/reliability", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestPerformanceEndpoint(t *testing.T) {
	srv := testServer(t)
	var out PerformanceResponse
	resp := postJSON(t, srv.URL+"/api/v1/performance", PerformanceRequest{
		Benchmark: "mcf", Striping: "across-channels", Requests: 10000, Seed: 1,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.NormalizedTime <= 1 {
		t.Errorf("across-channels normalized time %v, want > 1", out.NormalizedTime)
	}
	if out.Cycles == 0 || out.ActivePowerWatts <= 0 {
		t.Errorf("degenerate response %+v", out)
	}
}

func TestPerformanceValidation(t *testing.T) {
	srv := testServer(t)
	cases := []PerformanceRequest{
		{Benchmark: "nope"},
		{Benchmark: "mcf", Striping: "diagonal"},
		{Benchmark: "mcf", Protection: "raid0"},
		{Benchmark: "mcf", Requests: 100_000_000},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/api/v1/performance", c, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %+v: status %d, want 400", c, resp.StatusCode)
		}
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	srv := testServer(t)
	resp := getJSON(t, srv.URL+"/api/v1/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: %d", resp.StatusCode)
	}
	// GET on a POST-only route.
	resp2 := getJSON(t, srv.URL+"/api/v1/reliability", nil)
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("method mismatch: %d", resp2.StatusCode)
	}
}

func TestWrongMethodOnEveryRoute(t *testing.T) {
	srv := testServer(t)
	cases := []struct{ method, path string }{
		{http.MethodPost, "/api/v1/healthz"},
		{http.MethodPost, "/api/v1/readyz"},
		{http.MethodPost, "/api/v1/schemes"},
		{http.MethodPost, "/api/v1/benchmarks"},
		{http.MethodPost, "/api/v1/overhead"},
		{http.MethodGet, "/api/v1/reliability"},
		{http.MethodGet, "/api/v1/performance"},
		{http.MethodDelete, "/api/v1/reliability"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := New(Options{Logf: quietLogf})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/api/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var ready map[string]any
	if resp := getJSON(t, srv.URL+"/api/v1/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	if ready["status"] != "ready" || ready["capacity"] == nil {
		t.Errorf("readyz body %v", ready)
	}
	s.Drain()
	resp := getJSON(t, srv.URL+"/api/v1/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	// Liveness is unaffected by draining.
	if resp := getJSON(t, srv.URL+"/api/v1/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	s := New(Options{MaxBodyBytes: 128, Logf: quietLogf})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	big := `{"scheme":"` + strings.Repeat("x", 4096) + `"}`
	for _, path := range []string{"/api/v1/reliability", "/api/v1/performance"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestNegativeParameterValidation(t *testing.T) {
	srv := testServer(t)
	relCases := []ReliabilityRequest{
		{Scheme: "3DP", Trials: -1},
		{Scheme: "3DP", LifetimeYears: -2},
		{Scheme: "3DP", ScrubHours: -1},
		{Scheme: "3DP", TSVFIT: -10},
		{Scheme: "3DP", TargetFailures: -1},
	}
	for _, c := range relCases {
		resp := postJSON(t, srv.URL+"/api/v1/reliability", c, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reliability %+v: status %d, want 400", c, resp.StatusCode)
		}
	}
	resp := postJSON(t, srv.URL+"/api/v1/performance", PerformanceRequest{Benchmark: "mcf", Requests: -5}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("performance negative requests: status %d, want 400", resp.StatusCode)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Options{Logf: quietLogf})
	h := s.recoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out apiError
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || out.Error == "" {
		t.Errorf("expected JSON error body, got %q (err %v)", rec.Body.String(), err)
	}
}

// TestReliabilityClientDisconnectPartial simulates a client that goes
// away mid-run: the request context is cancelled, and the handler must
// come back within about one trial batch carrying a partial result.
func TestReliabilityClientDisconnectPartial(t *testing.T) {
	s := New(Options{Logf: quietLogf})
	h := s.Handler()
	body, err := json.Marshal(ReliabilityRequest{Scheme: "None", Trials: maxTrialsPerCall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("handler took %v after cancellation", elapsed)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out ReliabilityResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Error("cancelled run not marked partial")
	}
	if out.Trials <= 0 || out.Trials >= maxTrialsPerCall {
		t.Errorf("partial trials = %d, want in (0, %d)", out.Trials, maxTrialsPerCall)
	}
}

// TestReliabilityDeadlinePartial exercises the per-run deadline: a run
// that exceeds SimTimeout still answers 200 with a partial result.
func TestReliabilityDeadlinePartial(t *testing.T) {
	s := New(Options{SimTimeout: 100 * time.Millisecond, Logf: quietLogf})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	var out ReliabilityResponse
	resp := postJSON(t, srv.URL+"/api/v1/reliability", ReliabilityRequest{
		Scheme: "None", Trials: maxTrialsPerCall, Seed: 1,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Partial {
		t.Error("deadline-bounded run not marked partial")
	}
	if out.Trials <= 0 || out.Trials >= maxTrialsPerCall {
		t.Errorf("partial trials = %d, want in (0, %d)", out.Trials, maxTrialsPerCall)
	}
}

func TestPerformanceDeadlinePartial(t *testing.T) {
	s := New(Options{SimTimeout: 30 * time.Millisecond, Logf: quietLogf})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	var out PerformanceResponse
	resp := postJSON(t, srv.URL+"/api/v1/performance", PerformanceRequest{
		Benchmark: "mcf", Requests: 2_000_000, Seed: 1,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Partial {
		t.Error("deadline-bounded run not marked partial")
	}
}

// TestBackpressureSheds429 saturates the single simulation slot and
// asserts the next request is shed with 429 + Retry-After instead of
// queueing, then releases the slot and checks the long run returns a
// partial result.
func TestBackpressureSheds429(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueWait: -1, Logf: quietLogf})
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body, _ := json.Marshal(ReliabilityRequest{Scheme: "None", Trials: maxTrialsPerCall, Seed: 1})
		req := httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec
	}()
	for i := 0; s.InFlight() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.InFlight() != 1 {
		t.Fatal("long run never acquired the simulation slot")
	}
	body, _ := json.Marshal(ReliabilityRequest{Scheme: "None", Trials: 1000, Seed: 2})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	cancel()
	first := <-done
	if first.Code != http.StatusOK {
		t.Fatalf("long run status %d", first.Code)
	}
	var out ReliabilityResponse
	if err := json.NewDecoder(first.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Error("cancelled long run not marked partial")
	}
	if s.InFlight() != 0 {
		t.Errorf("slot not released: %d in flight", s.InFlight())
	}
}

// TestQueueWaitAdmitsWhenSlotFrees covers the backpressure wait path: a
// request that arrives while the slot is busy is admitted once the slot
// frees within QueueWait.
func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueWait: 10 * time.Second, Logf: quietLogf})
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(ReliabilityRequest{Scheme: "None", Trials: maxTrialsPerCall, Seed: 1})
		req := httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	for i := 0; s.InFlight() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Free the slot shortly after the second request starts waiting.
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	body, _ := json.Marshal(ReliabilityRequest{Scheme: "None", Trials: 1000, Seed: 2})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/reliability", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("queued request: status %d, want 200 after slot freed", rec.Code)
	}
	<-done
}
