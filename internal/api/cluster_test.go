package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/store"
)

// clusterServer builds a test server with both the job and coordinator
// routes mounted.
func clusterServer(t *testing.T) (*httptest.Server, *cluster.Coordinator) {
	t.Helper()
	coord := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 100 * time.Millisecond, NoWorkerGrace: -1, Logf: quietLogf,
	})
	st, err := store.Open(t.TempDir(), store.Options{Logf: quietLogf})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	orch := jobs.New(jobs.Options{Store: st, Workers: 1, QueueDepth: 4, Logf: quietLogf, ChunkExec: coord})
	srv := httptest.NewServer(New(Options{Jobs: orch, Cluster: coord, Logf: quietLogf}).Handler())
	// The coordinator closes before the server: Close releases held lease
	// requests, which httptest.Server.Close would otherwise wait out.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		orch.Close(ctx)
		coord.Close()
		srv.Close()
	})
	return srv, coord
}

func postClusterJSON(t *testing.T, url string, body, out any) *http.Response {
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
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestClusterRoutes drives the worker protocol over HTTP: idle lease is
// 204, contact makes the worker visible in the fleet listing and readyz,
// and malformed requests are 400s.
func TestClusterRoutes(t *testing.T) {
	srv, _ := clusterServer(t)

	// No campaigns: leasing answers 204 No Content.
	resp := postClusterJSON(t, srv.URL+cluster.LeasePath, cluster.LeaseRequest{WorkerID: "w1"}, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle lease = %d, want 204", resp.StatusCode)
	}
	// Missing worker ID is a 400.
	resp = postClusterJSON(t, srv.URL+cluster.LeasePath, cluster.LeaseRequest{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lease without workerId = %d, want 400", resp.StatusCode)
	}
	// Heartbeat on an unknown lease is a clean "not extended", not an error.
	var hb cluster.HeartbeatResponse
	resp = postClusterJSON(t, srv.URL+cluster.HeartbeatPath,
		cluster.HeartbeatRequest{WorkerID: "w1", LeaseID: "nope"}, &hb)
	if resp.StatusCode != http.StatusOK || hb.Extended {
		t.Fatalf("unknown-lease heartbeat = %d extended=%t, want 200 extended=false", resp.StatusCode, hb.Extended)
	}
	// Complete without an envelope is a 400.
	resp = postClusterJSON(t, srv.URL+cluster.CompletePath,
		cluster.CompleteRequest{WorkerID: "w1", LeaseID: "nope"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("complete without envelope = %d, want 400", resp.StatusCode)
	}
	// The worker that made contact shows up in the fleet listing.
	var ws cluster.WorkersResponse
	if resp := getJSON(t, srv.URL+cluster.WorkersPath, &ws); resp.StatusCode != http.StatusOK {
		t.Fatalf("workers = %d, want 200", resp.StatusCode)
	}
	if len(ws.Workers) != 1 || ws.Workers[0].ID != "w1" || ws.LiveWorkers != 1 {
		t.Fatalf("workers listing = %+v, want exactly live w1", ws)
	}
}

// TestReadyzReportsQueueAndWorkers: with jobs and clustering enabled,
// readiness reports the job-queue depth and the live-worker count so
// operators can see both backlogs from one probe.
func TestReadyzReportsQueueAndWorkers(t *testing.T) {
	srv, coord := clusterServer(t)

	// A worker makes contact so the live count is non-zero. A request whose
	// context has ended still counts as contact and answers at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coord.Lease(ctx, "w1")

	var body struct {
		Status        string `json:"status"`
		JobQueueDepth *int   `json:"jobQueueDepth"`
		JobQueueCap   *int   `json:"jobQueueCap"`
		LiveWorkers   *int   `json:"liveWorkers"`
	}
	resp := getJSON(t, srv.URL+"/api/v1/readyz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ready" {
		t.Fatalf("readyz = %d %q, want 200 ready", resp.StatusCode, body.Status)
	}
	if body.JobQueueDepth == nil || body.JobQueueCap == nil {
		t.Fatal("readyz is missing jobQueueDepth/jobQueueCap with jobs enabled")
	}
	if *body.JobQueueCap != 4 {
		t.Errorf("jobQueueCap = %d, want 4", *body.JobQueueCap)
	}
	if body.LiveWorkers == nil {
		t.Fatal("readyz is missing liveWorkers with clustering enabled")
	}
	if *body.LiveWorkers != 1 {
		t.Errorf("liveWorkers = %d, want 1", *body.LiveWorkers)
	}
}

// TestReadyzOmitsClusterFieldsWhenDisabled: the plain server keeps its
// original readiness shape.
func TestReadyzOmitsClusterFieldsWhenDisabled(t *testing.T) {
	srv := testServer(t)
	var body map[string]any
	resp := getJSON(t, srv.URL+"/api/v1/readyz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	for _, k := range []string{"jobQueueDepth", "jobQueueCap", "liveWorkers"} {
		if _, ok := body[k]; ok {
			t.Errorf("readyz reports %q without the feature enabled", k)
		}
	}
}

// TestRetryAfterJitter: the queue-depth-scaled Retry-After hint must stay
// inside its ±25% band around 2s/job, stay clamped to [1, 120], and
// actually spread — identical hints would stampede every shed client
// back at the same instant.
func TestRetryAfterJitter(t *testing.T) {
	const depth = 20 // base 40s, band [30, 50]
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterSeconds(depth)
		if v < 30 || v > 50 {
			t.Fatalf("retryAfterSeconds(%d) = %d, outside the jitter band [30, 50]", depth, v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 samples produced %d distinct hints; jitter is not spreading retries", len(seen))
	}
	// Clamps survive the jitter.
	for i := 0; i < 200; i++ {
		if v := retryAfterSeconds(0); v != 1 {
			t.Fatalf("retryAfterSeconds(0) = %d, want 1", v)
		}
		if v := retryAfterSeconds(1000); v != 120 {
			t.Fatalf("retryAfterSeconds(1000) = %d, want 120", v)
		}
	}
}
