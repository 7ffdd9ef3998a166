package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	citadel "repro"
	"repro/internal/cluster"
	"repro/internal/jobs"
)

// serviceProbe collects the cluster and jobs seams of a traced phase.
type serviceProbe struct {
	mu                                             sync.Mutex
	leaseRTT, completeRTT, commitMs                []float64
	leaseRequests, leaseGrants, heartbeats, chunks int
	busyNs                                         int64
	chunkRuns                                      [][]citadel.Result
}

// tracedTransport times a cluster worker's calls to the coordinator. It
// is installed only in traced runs and records only while a tracer is
// active.
type tracedTransport struct {
	inner   http.RoundTripper
	tid     int64
	grantAt int64 // tracer ns of the worker's open lease grant, 0 if none
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := activeTracer.Load()
	if t == nil {
		return tt.inner.RoundTrip(req)
	}
	t0 := t.ns()
	resp, err := tt.inner.RoundTrip(req)
	t1 := t.ns()
	ms := float64(t1-t0) / 1e6
	p := &t.svc
	p.mu.Lock()
	defer p.mu.Unlock()
	switch req.URL.Path {
	case cluster.LeasePath:
		p.leaseRequests++
		p.leaseRTT = append(p.leaseRTT, ms)
		if err == nil && resp.StatusCode == http.StatusOK {
			p.leaseGrants++
			tt.grantAt = t1
		}
	case cluster.HeartbeatPath:
		p.heartbeats++
	case cluster.CompletePath:
		p.chunks++
		p.completeRTT = append(p.completeRTT, ms)
		if tt.grantAt > 0 {
			p.busyNs += t1 - tt.grantAt
			tt.grantAt = 0
		}
	}
	t.span(req.URL.Path, "cluster", tt.tid, t0, t1)
	return resp, err
}

// tracedExecutor is the coordinator seen by the orchestrator: it times
// every commit (merge, checkpoint and publish) and keeps the committed
// chunk results for the merge replay.
type tracedExecutor struct{ inner jobs.ChunkExecutor }

func (e tracedExecutor) ExecuteChunks(ctx context.Context, c jobs.Campaign, commit func(int, citadel.Result) error) error {
	t := activeTracer.Load()
	if t == nil {
		return e.inner.ExecuteChunks(ctx, c, commit)
	}
	var chunks []citadel.Result // guarded by t.svc.mu
	err := e.inner.ExecuteChunks(ctx, c, func(i int, res citadel.Result) error {
		t0 := t.ns()
		err := commit(i, res)
		t1 := t.ns()
		t.span("jobs.commit", "jobs", commitTID, t0, t1)
		t.svc.mu.Lock()
		t.svc.commitMs = append(t.svc.commitMs, float64(t1-t0)/1e6)
		chunks = append(chunks, res)
		t.svc.mu.Unlock()
		return err
	})
	t.svc.mu.Lock()
	t.svc.chunkRuns = append(t.svc.chunkRuns, chunks)
	t.svc.mu.Unlock()
	return err
}

// clusterLayers derives the cluster and commit metrics; wall is the
// traced phase's length.
func (t *tracer) clusterLayers(r *report, workers int, wall time.Duration) {
	p := &t.svc
	p.mu.Lock()
	defer p.mu.Unlock()
	commitP50 := median(p.commitMs)
	commitP90, _ := percentile(p.commitMs, 90)
	leaseP90, _ := percentile(p.leaseRTT, 90)
	r.set("jobs.commit_p50_ms", commitP50, len(p.commitMs))
	r.set("jobs.commit_p90_ms", commitP90, len(p.commitMs))
	r.set("cluster.lease_rtt_p50_ms", median(p.leaseRTT), len(p.leaseRTT))
	r.set("cluster.lease_rtt_p90_ms", leaseP90, len(p.leaseRTT))
	r.set("cluster.complete_rtt_p50_ms", median(p.completeRTT), len(p.completeRTT))
	r.set("cluster.lease_grant_ratio", ratio(float64(p.leaseGrants), float64(p.leaseRequests)), p.leaseRequests)
	r.set("cluster.heartbeats_per_chunk", ratio(float64(p.heartbeats), float64(p.chunks)), p.chunks)
	r.set("cluster.worker_busy_share", ratio(float64(p.busyNs), float64(workers)*float64(wall)), p.chunks)
}
