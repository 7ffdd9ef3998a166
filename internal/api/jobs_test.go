package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

// jobsServer builds a test server with the async job routes enabled.
func jobsServer(t *testing.T, workers, depth int) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	orch := jobs.New(jobs.Options{Store: st, Workers: workers, QueueDepth: depth, Logf: quietLogf})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		orch.Close(ctx)
	})
	srv := httptest.NewServer(New(Options{Jobs: orch, Logf: quietLogf}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func smallJobBody(seed int64) map[string]any {
	return map[string]any{
		"reliability": map[string]any{
			"scheme":           "Citadel",
			"trials":           2000,
			"checkpointTrials": 500,
			"workers":          1,
			"seed":             seed,
			"tsvFit":           1430,
		},
	}
}

func longJobBody(seed int64) map[string]any {
	return map[string]any{
		"reliability": map[string]any{
			"scheme":           "Citadel",
			"trials":           2_000_000,
			"checkpointTrials": 100000,
			"workers":          1,
			"seed":             seed,
			"tsvFit":           1430,
		},
	}
}

func deleteJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestJobSubmitPollResult(t *testing.T) {
	srv := jobsServer(t, 1, 8)
	var sub JobResponse
	resp := postJSON(t, srv.URL+"/api/v1/jobs", smallJobBody(11), &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if sub.Job == nil || sub.Job.ID == "" {
		t.Fatal("202 response carries no job ID")
	}

	deadline := time.Now().Add(2 * time.Minute)
	var got JobResponse
	for {
		resp := getJSON(t, srv.URL+"/api/v1/jobs/"+sub.Job.ID, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if got.Job.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Job.State != jobs.StateDone {
		t.Fatalf("state = %s (%s), want done", got.Job.State, got.Job.Error)
	}
	if len(got.Job.Result) == 0 {
		t.Error("done job has no result payload")
	}

	var list struct {
		Jobs       []JobResponse `json:"jobs"`
		QueueDepth int           `json:"queueDepth"`
		QueueCap   int           `json:"queueCap"`
	}
	if resp := getJSON(t, srv.URL+"/api/v1/jobs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if len(list.Jobs) != 1 || list.QueueCap != 8 {
		t.Errorf("list = %d jobs cap %d, want 1 jobs cap 8", len(list.Jobs), list.QueueCap)
	}
	if len(list.Jobs) == 1 && len(list.Jobs[0].Job.Result) != 0 {
		t.Error("listing includes result payloads; they should be stripped")
	}

	// Resubmitting the same spec is a cache hit: done immediately.
	var cached JobResponse
	if resp := postJSON(t, srv.URL+"/api/v1/jobs", smallJobBody(11), &cached); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cached submit status = %d", resp.StatusCode)
	}
	if !cached.Job.Cached || cached.Job.State != jobs.StateDone {
		t.Errorf("resubmit cached=%v state=%s, want cached done", cached.Job.Cached, cached.Job.State)
	}
}

func TestJobCancelAndNotFound(t *testing.T) {
	srv := jobsServer(t, 1, 8)
	var sub JobResponse
	if resp := postJSON(t, srv.URL+"/api/v1/jobs", longJobBody(12), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var cancelled JobResponse
	if resp := deleteJSON(t, srv.URL+"/api/v1/jobs/"+sub.Job.ID, &cancelled); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		var got JobResponse
		getJSON(t, srv.URL+"/api/v1/jobs/"+sub.Job.ID, &got)
		if got.Job.State.Terminal() {
			if got.Job.State != jobs.StateCancelled {
				t.Fatalf("state after cancel = %s", got.Job.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Second cancel conflicts; unknown IDs are 404.
	if resp := deleteJSON(t, srv.URL+"/api/v1/jobs/"+sub.Job.ID, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel status = %d, want 409", resp.StatusCode)
	}
	if resp := deleteJSON(t, srv.URL+"/api/v1/jobs/j-nope-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown status = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/v1/jobs/j-nope-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status unknown = %d, want 404", resp.StatusCode)
	}
}

func TestJobQueueFullRetryAfter(t *testing.T) {
	srv := jobsServer(t, 1, 1)
	var a JobResponse
	if resp := postJSON(t, srv.URL+"/api/v1/jobs", longJobBody(13), &a); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit a = %d", resp.StatusCode)
	}
	// Wait for the long job to occupy the worker so the next submit
	// really sits in the queue.
	deadline := time.Now().Add(time.Minute)
	for {
		var got JobResponse
		getJSON(t, srv.URL+"/api/v1/jobs/"+a.Job.ID, &got)
		if got.Job.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job a never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var b JobResponse
	if resp := postJSON(t, srv.URL+"/api/v1/jobs", longJobBody(14), &b); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit b = %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/api/v1/jobs", longJobBody(15), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past bound = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	deleteJSON(t, srv.URL+"/api/v1/jobs/"+b.Job.ID, nil)
	deleteJSON(t, srv.URL+"/api/v1/jobs/"+a.Job.ID, nil)
}

func TestJobSubmitValidation(t *testing.T) {
	srv := jobsServer(t, 1, 8)
	cases := []map[string]any{
		{}, // no sub-spec
		{"reliability": map[string]any{"scheme": "NoSuch"}},                        // unknown scheme
		{"reliability": map[string]any{"scheme": "Citadel", "trials": -1}},         // negative
		{"reliability": map[string]any{"scheme": "Citadel", "trials": 10_000_000}}, // over cap
		{"performance": map[string]any{"benchmark": "mcf", "requests": 3_000_000}}, // over cap
		// The shared validator answers these; biasFactor 0.5 once slipped
		// past a handler check that tested < 0.
		{"reliability": map[string]any{"scheme": "Citadel", "rareEvent": true, "biasFactor": 0.5}},
		{"reliability": map[string]any{"scheme": "Citadel", "biasFactor": 4}},
		// A misspelled field must not run, or hit the cache, at 0 TSV FIT.
		{"reliability": map[string]any{"scheme": "Citadel", "trials": 200, "tsvFitPerDie": 1430}},
	}
	for i, body := range cases {
		if resp := postJSON(t, srv.URL+"/api/v1/jobs", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
}

func TestJobRoutesAbsentWithoutOrchestrator(t *testing.T) {
	srv := testServer(t)
	if resp := postJSON(t, srv.URL+"/api/v1/jobs", smallJobBody(1), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("jobs route without orchestrator = %d, want 404", resp.StatusCode)
	}
}
