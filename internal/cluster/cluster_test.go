package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	citadel "repro"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/faultsim"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
)

// nolog discards coordinator, worker, orchestrator and store chatter.
func nolog(string, ...any) {}

// counter reads a process-wide obs counter so tests can assert deltas.
func counter(name string) int64 {
	return obs.Default().Counter(name, "").Value()
}

// testSpec is a campaign sized for tests. It leaves Workers unset, so
// every host runs its chunks at its own GOMAXPROCS.
func testSpec(seed int64, trials, chunk int) jobs.Spec {
	return jobs.Spec{Reliability: &jobs.ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           trials,
		CheckpointTrials: chunk,
		Seed:             seed,
		TSVFIT:           1430,
	}}
}

// runLocal executes spec on a plain in-process orchestrator at
// GOMAXPROCS 1 and returns the finished job's result bytes — the
// determinism reference, which distributed runs on another host shape
// (setProcs) must reproduce byte for byte.
func runLocal(t *testing.T, spec jobs.Spec) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, err := store.Open(t.TempDir(), store.Options{Logf: nolog})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	o := jobs.New(jobs.Options{Store: st, Workers: 1, QueueDepth: 4, Logf: nolog})
	defer closeOrch(t, o)
	return runCampaign(t, o, spec)
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func runCampaign(t *testing.T, o *jobs.Orchestrator, spec jobs.Spec) []byte {
	t.Helper()
	j, err := o.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err = o.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s), want done", j.State, j.Error)
	}
	return j.Result
}

func closeOrch(t *testing.T, o *jobs.Orchestrator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := o.Close(ctx); err != nil {
		t.Errorf("orchestrator close: %v", err)
	}
}

// harness is a full coordinator stack: store-backed orchestrator whose
// ChunkExecutor is a Coordinator served over a real HTTP listener.
type harness struct {
	coord *cluster.Coordinator
	srv   *httptest.Server
	orch  *jobs.Orchestrator
}

func newHarness(t *testing.T, copts cluster.Options) *harness {
	t.Helper()
	copts.Logf = nolog
	coord := cluster.New(copts)
	srv := httptest.NewServer(api.New(api.Options{Cluster: coord, Logf: nolog}).Handler())
	st, err := store.Open(t.TempDir(), store.Options{Logf: nolog})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	orch := jobs.New(jobs.Options{
		Store: st, Workers: 1, QueueDepth: 4, Logf: nolog, ChunkExec: coord,
	})
	t.Cleanup(func() {
		closeOrch(t, orch)
		coord.Close()
		srv.Close()
	})
	return &harness{coord: coord, srv: srv, orch: orch}
}

// startWorker runs a pulling worker against the harness until the test
// ends.
func (h *harness) startWorker(t *testing.T, id string) {
	t.Helper()
	runWorker(t, h.srv.URL, id, 20*time.Millisecond)
}

// runWorker runs a pulling worker against baseURL until the returned stop
// is called or the test ends; stop returns once Run has.
func runWorker(t *testing.T, baseURL, id string, poll time.Duration) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := cluster.NewWorker(cluster.WorkerOptions{
		BaseURL:      baseURL,
		ID:           id,
		PollInterval: poll,
		Logf:         nolog,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// TestDistributedMatchesLocal is the determinism contract end to end: the
// same campaign run in-process on one CPU, and on one and on four workers
// at GOMAXPROCS 4, must produce bit-identical result bytes.
func TestDistributedMatchesLocal(t *testing.T) {
	// 3DP lacks TSV-SWAP, so it fails often at 1430 TSV FIT and the two
	// results have failures to disagree on.
	spec := testSpec(7, 4000, 500)
	spec.Reliability.Scheme = "3DP"
	want := runLocal(t, spec)
	var ref faultsim.Result
	if err := json.Unmarshal(want, &ref); err != nil || ref.Failures == 0 {
		t.Fatalf("local reference has no failures (err %v): %s", err, want)
	}
	setProcs(t, 4)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHarness(t, cluster.Options{
				LeaseTTL:      2 * time.Second,
				Tick:          50 * time.Millisecond,
				NoWorkerGrace: 10 * time.Second,
			})
			for i := 0; i < workers; i++ {
				h.startWorker(t, fmt.Sprintf("w%d", i))
			}
			before := counter("citadel_cluster_chunks_completed_total")
			got := runCampaign(t, h.orch, spec)
			if !bytes.Equal(got, want) {
				t.Errorf("distributed result differs from local:\n got %s\nwant %s", got, want)
			}
			if d := counter("citadel_cluster_chunks_completed_total") - before; d < 8 {
				t.Errorf("only %d chunks ran on workers, want 8 (campaign did not distribute)", d)
			}
		})
	}
}

// TestNoWorkersFallsBackLocal: a clustered campaign with zero live
// workers must complete locally after the grace period — same bytes, no
// wedge.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	spec := testSpec(11, 1000, 250)
	want := runLocal(t, spec)
	h := newHarness(t, cluster.Options{
		LeaseTTL:      500 * time.Millisecond,
		Tick:          25 * time.Millisecond,
		NoWorkerGrace: 150 * time.Millisecond,
	})
	before := counter("citadel_jobs_cluster_fallback_total")
	got := runCampaign(t, h.orch, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("fallback result differs from local:\n got %s\nwant %s", got, want)
	}
	if d := counter("citadel_jobs_cluster_fallback_total") - before; d < 1 {
		t.Errorf("fallback counter did not move (delta %d)", d)
	}
}

// TestNoWorkersFallsBackWithinGrace: with Tick unset and a grace far
// below LeaseTTL/4, a campaign that never sees a worker is handed back
// about one grace after it registers, not after expiry scans a quarter
// of the lease TTL apart.
func TestNoWorkersFallsBackWithinGrace(t *testing.T) {
	c := cluster.New(cluster.Options{LeaseTTL: 8 * time.Second, NoWorkerGrace: 200 * time.Millisecond, Logf: nolog})
	defer c.Close()
	start := time.Now()
	err := c.ExecuteChunks(context.Background(), jobs.Campaign{Key: "camp-alone", RunID: "r1", Spec: normSpec(200, 100), Start: 0, Total: 2},
		func(int, citadel.Result) error { return nil })
	if !errors.Is(err, cluster.ErrNoWorkers) {
		t.Fatalf("ExecuteChunks = %v, want ErrNoWorkers", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > 1500*time.Millisecond {
		t.Errorf("fell back after %v, want between the 200ms grace and 1.5s", d)
	}
}

// normSpec builds a normalized single-campaign ReliabilitySpec for
// driving the Coordinator directly, bypassing HTTP.
func normSpec(trials, chunk int) jobs.ReliabilitySpec {
	return jobs.ReliabilitySpec{
		Scheme: "Citadel", Trials: trials, CheckpointTrials: chunk,
		LifetimeYears: 7, ScrubHours: 12, Seed: 1,
	}
}

// fakeEnvelope forges a valid chunk result without simulating; protocol
// tests only exercise bookkeeping, not the engine.
func fakeEnvelope(key string, chunk, trials int) faultsim.ChunkEnvelope {
	return faultsim.ChunkEnvelope{
		CampaignKey: key,
		Chunk:       chunk,
		Trials:      trials,
		Result:      citadel.Result{Policy: "fake", Trials: trials},
	}
}

// leaseEventually asks for a lease until the worker gets a grant or
// within passes. Lease holds each request until work is leasable, but for
// at most LeaseTTL/3, so it asks again at once, as a worker does.
func leaseEventually(t *testing.T, c *cluster.Coordinator, workerID string, within time.Duration) cluster.LeaseGrant {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	for ctx.Err() == nil {
		if g, ok := c.Lease(ctx, workerID); ok {
			return g
		}
	}
	t.Fatalf("worker %s got no lease within %s", workerID, within)
	return cluster.LeaseGrant{}
}

// execAsync runs ExecuteChunks in the background, collecting commits.
type execResult struct {
	committed []int
	err       error
	done      chan struct{}
}

func execAsync(c *cluster.Coordinator, cam jobs.Campaign) *execResult {
	r := &execResult{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = c.ExecuteChunks(context.Background(), cam, func(chunk int, _ citadel.Result) error {
			r.committed = append(r.committed, chunk)
			return nil
		})
	}()
	return r
}

func (r *execResult) wait(t *testing.T) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(30 * time.Second):
		t.Fatal("ExecuteChunks did not return")
	}
}

// TestLeaseExpiryReassigns: a worker that takes a lease and goes silent
// loses it; the chunk is re-leased to another worker, whose result
// completes the campaign, and the dead worker's heartbeat answers
// revoked.
func TestLeaseExpiryReassigns(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: 100 * time.Millisecond, Tick: 20 * time.Millisecond,
		RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond,
		QuarantineAfter: 100, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	spec := normSpec(100, 100)
	run := execAsync(c, jobs.Campaign{Key: "camp-expiry", RunID: "r1", Spec: spec, Start: 0, Total: 1})

	g1 := leaseEventually(t, c, "w1", 5*time.Second)
	if g1.Chunk != 0 || g1.Trials != 100 {
		t.Fatalf("grant = chunk %d / %d trials, want 0 / 100", g1.Chunk, g1.Trials)
	}
	// w1 never heartbeats: the lease must expire and the chunk re-lease.
	g2 := leaseEventually(t, c, "w2", 5*time.Second)
	if g2.Chunk != 0 || g2.LeaseID == g1.LeaseID {
		t.Fatalf("reassigned grant = chunk %d lease %s, want chunk 0 under a fresh lease (old %s)",
			g2.Chunk, g2.LeaseID, g1.LeaseID)
	}
	if c.Heartbeat("w1", g1.LeaseID) {
		t.Error("expired lease still heartbeats")
	}
	st, err := c.Complete("w2", g2.LeaseID, fakeEnvelope("camp-expiry", 0, 100))
	if err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
	if len(run.committed) != 1 || run.committed[0] != 0 {
		t.Fatalf("committed %v, want [0]", run.committed)
	}
}

// TestHeartbeatKeepsLeaseAlive: heartbeats at TTL/3 carry a lease far
// past its TTL without expiry.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: 120 * time.Millisecond, Tick: 20 * time.Millisecond,
		NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	run := execAsync(c, jobs.Campaign{Key: "camp-hb", RunID: "r1", Spec: normSpec(100, 100), Start: 0, Total: 1})
	g := leaseEventually(t, c, "w1", 5*time.Second)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if !c.Heartbeat("w1", g.LeaseID) {
			t.Fatal("live lease refused a heartbeat")
		}
		time.Sleep(40 * time.Millisecond)
	}
	if st, err := c.Complete("w1", g.LeaseID, fakeEnvelope("camp-hb", 0, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}

// TestDuplicateAndStaleComplete: redelivering a merged chunk answers
// duplicate while the campaign runs and stale after it ends; commits
// happen exactly once per chunk in order.
func TestDuplicateAndStaleComplete(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	run := execAsync(c, jobs.Campaign{Key: "camp-dup", RunID: "r1", Spec: normSpec(200, 100), Start: 0, Total: 2})

	g0 := leaseEventually(t, c, "w1", 5*time.Second)
	g1 := leaseEventually(t, c, "w2", 5*time.Second)
	if g0.Chunk != 0 || g1.Chunk != 1 {
		t.Fatalf("grants = chunks %d, %d; want 0, 1", g0.Chunk, g1.Chunk)
	}
	if st, err := c.Complete("w1", g0.LeaseID, fakeEnvelope("camp-dup", 0, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("first delivery = %s, %v; want accepted", st, err)
	}
	if st, err := c.Complete("w1", g0.LeaseID, fakeEnvelope("camp-dup", 0, 100)); err != nil || st != cluster.CompleteDuplicate {
		t.Fatalf("redelivery = %s, %v; want duplicate", st, err)
	}
	if st, err := c.Complete("w2", g1.LeaseID, fakeEnvelope("camp-dup", 1, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("second chunk = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
	if len(run.committed) != 2 || run.committed[0] != 0 || run.committed[1] != 1 {
		t.Fatalf("committed %v, want [0 1]", run.committed)
	}
	// The campaign is gone: late deliveries are stale, not errors.
	if st, err := c.Complete("w2", g1.LeaseID, fakeEnvelope("camp-dup", 1, 100)); err != nil || st != cluster.CompleteStale {
		t.Fatalf("post-campaign delivery = %s, %v; want stale", st, err)
	}
}

// TestCompleteAnswersBeforeCommit: the goroutine that called
// ExecuteChunks is the only one that commits, so a delivery answers
// accepted while an earlier commit is still running, and the commits
// stay in chunk order. Complete used to run the commit itself, so it
// answered only once the commit (a checkpoint fsync in the orchestrator)
// was done.
func TestCompleteAnswersBeforeCommit(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	entered, release := make(chan int, 2), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // before c.Close, which would wait for the commit
	var committed []int
	done := make(chan error, 1)
	go func() {
		done <- c.ExecuteChunks(context.Background(), jobs.Campaign{Key: "camp-slow", RunID: "r1", Spec: normSpec(200, 100), Start: 0, Total: 2},
			func(chunk int, _ citadel.Result) error {
				entered <- chunk
				<-release
				committed = append(committed, chunk)
				return nil
			})
	}()
	deliver := func(workerID string, g cluster.LeaseGrant) {
		t.Helper()
		answer := make(chan string, 1)
		go func() {
			st, err := c.Complete(workerID, g.LeaseID, fakeEnvelope("camp-slow", g.Chunk, 100))
			answer <- fmt.Sprintf("%s, %v", st, err)
		}()
		select {
		case got := <-answer:
			if want := fmt.Sprintf("%s, <nil>", cluster.CompleteAccepted); got != want {
				t.Fatalf("Complete of chunk %d = %s; want %s", g.Chunk, got, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("Complete of chunk %d did not answer within 1s", g.Chunk)
		}
	}
	g0 := leaseEventually(t, c, "w1", 5*time.Second)
	g1 := leaseEventually(t, c, "w2", 5*time.Second)
	deliver("w1", g0)
	select {
	case chunk := <-entered:
		if chunk != 0 {
			t.Fatalf("first commit is of chunk %d, want 0", chunk)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chunk 0 was never committed")
	}
	deliver("w2", g1)
	free()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ExecuteChunks: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ExecuteChunks did not return")
	}
	if len(committed) != 2 || committed[0] != 0 || committed[1] != 1 {
		t.Fatalf("committed %v, want [0 1]", committed)
	}
}

// TestCancelStopsFoldOfBufferedChunks: a cancel ends the campaign before
// the next commit even when every remaining chunk is already delivered,
// so a cancelled campaign is never reported complete.
func TestCancelStopsFoldOfBufferedChunks(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered, release := make(chan int, 3), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // before c.Close, which would wait for the commit
	var committed []int
	done := make(chan error, 1)
	go func() {
		done <- c.ExecuteChunks(ctx, jobs.Campaign{Key: "camp-cancel", RunID: "r1", Spec: normSpec(300, 100), Start: 0, Total: 3},
			func(chunk int, _ citadel.Result) error {
				entered <- chunk
				<-release
				committed = append(committed, chunk)
				return nil
			})
	}()
	var grants []cluster.LeaseGrant
	for _, w := range []string{"w1", "w2", "w3"} {
		grants = append(grants, leaseEventually(t, c, w, 5*time.Second))
	}
	for i, g := range grants {
		if st, err := c.Complete(fmt.Sprintf("w%d", i+1), g.LeaseID, fakeEnvelope("camp-cancel", g.Chunk, 100)); err != nil || st != cluster.CompleteAccepted {
			t.Fatalf("Complete of chunk %d = %s, %v; want accepted", g.Chunk, st, err)
		}
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("chunk 0 was never committed")
	}
	cancel()
	free()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("ExecuteChunks = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExecuteChunks did not return after cancel")
	}
	if len(committed) != 1 || committed[0] != 0 {
		t.Fatalf("committed %v, want [0]", committed)
	}
}

// TestHugeCampaignLeases: the coordinator keeps state only for chunks in
// flight, so a campaign of MaxInt64 trials is leased and folded like any
// other instead of being refused or allocating a table per chunk.
func TestHugeCampaignLeases(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	committed := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		done <- c.ExecuteChunks(ctx, jobs.Campaign{
			Key: "camp-huge", RunID: "r1", Spec: normSpec(math.MaxInt64, 10000), Start: 5, Total: (math.MaxInt64-1)/10000 + 1,
		}, func(chunk int, _ citadel.Result) error {
			committed <- chunk
			return nil
		})
	}()
	g := leaseEventually(t, c, "w1", 5*time.Second)
	if g.Chunk != 5 || g.Trials != 10000 {
		t.Fatalf("first grant is chunk %d of %d trials, want chunk 5 of 10000", g.Chunk, g.Trials)
	}
	if st, err := c.Complete("w1", g.LeaseID, fakeEnvelope("camp-huge", g.Chunk, g.Trials)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	select {
	case chunk := <-committed:
		if chunk != 5 {
			t.Fatalf("committed chunk %d, want 5", chunk)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chunk 5 was never committed")
	}
	if g := leaseEventually(t, c, "w1", 5*time.Second); g.Chunk != 6 {
		t.Fatalf("second grant is chunk %d, want 6", g.Chunk)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("ExecuteChunks = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExecuteChunks did not return after cancel")
	}
}

// TestQuarantineAfterConsecutiveFailures: a worker that keeps failing
// chunks is refused leases while healthy workers still get them.
func TestQuarantineAfterConsecutiveFailures(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		QuarantineAfter: 2, QuarantineFor: time.Hour, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	run := execAsync(c, jobs.Campaign{Key: "camp-q", RunID: "r1", Spec: normSpec(100, 100), Start: 0, Total: 1})

	for i := 0; i < 2; i++ {
		g := leaseEventually(t, c, "bad", 5*time.Second)
		c.Fail("bad", g.LeaseID, "synthetic failure")
	}
	// Quarantined: no lease for "bad" even though the chunk is pending. The
	// request is held past the chunk's backoff, which is at most RetryMax.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, ok := c.Lease(ctx, "bad")
	cancel()
	if ok {
		t.Error("quarantined worker still gets leases")
	}
	ws := c.Workers()
	var bad *cluster.WorkerInfo
	for i := range ws.Workers {
		if ws.Workers[i].ID == "bad" {
			bad = &ws.Workers[i]
		}
	}
	if bad == nil || !bad.Quarantined {
		t.Errorf("workers listing does not show bad as quarantined: %+v", ws.Workers)
	}
	// A healthy worker finishes the campaign.
	g := leaseEventually(t, c, "good", 5*time.Second)
	if st, err := c.Complete("good", g.LeaseID, fakeEnvelope("camp-q", 0, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}

// TestMalformedEnvelopeRejected: trial-count mismatches and partial
// results must not enter a merge, and the delivery is an error.
func TestMalformedEnvelopeRejected(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond,
		QuarantineAfter: 100, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	run := execAsync(c, jobs.Campaign{Key: "camp-bad", RunID: "r1", Spec: normSpec(100, 100), Start: 0, Total: 1})
	g := leaseEventually(t, c, "w1", 5*time.Second)

	wrong := fakeEnvelope("camp-bad", 0, 50) // 50 trials, chunk wants 100
	if _, err := c.Complete("w1", g.LeaseID, wrong); err == nil {
		t.Error("trial-count mismatch accepted")
	}
	partial := fakeEnvelope("camp-bad", 0, 100)
	partial.Result.Partial = true
	if _, err := c.Complete("w1", g.LeaseID, partial); err == nil {
		t.Error("partial result accepted")
	}
	// The chunk is still completable with a correct envelope.
	if st, err := c.Complete("w1", g.LeaseID, fakeEnvelope("camp-bad", 0, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}

// TestExecuteChunksValidation rejects malformed campaigns up front.
func TestExecuteChunksValidation(t *testing.T) {
	c := cluster.New(cluster.Options{Logf: nolog})
	defer c.Close()
	commit := func(int, citadel.Result) error { return nil }
	spec := normSpec(100, 100)
	cases := []struct {
		name string
		cam  jobs.Campaign
	}{
		{"no key", jobs.Campaign{Spec: spec, Total: 1}},
		{"bad range", jobs.Campaign{Key: "k", Spec: spec, Start: 2, Total: 1}},
		{"unnormalized", jobs.Campaign{Key: "k", Spec: jobs.ReliabilitySpec{Scheme: "Citadel"}, Total: 1}},
	}
	for _, tc := range cases {
		if err := c.ExecuteChunks(context.Background(), tc.cam, commit); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// A fully committed range is a no-op success.
	if err := c.ExecuteChunks(context.Background(), jobs.Campaign{Key: "k", Spec: spec, Start: 1, Total: 1}, commit); err != nil {
		t.Errorf("empty range: %v", err)
	}
	// After Close, campaigns are refused.
	c.Close()
	if err := c.ExecuteChunks(context.Background(), jobs.Campaign{Key: "k2", Spec: spec, Start: 0, Total: 1}, commit); err != cluster.ErrClosed {
		t.Errorf("post-close ExecuteChunks = %v, want ErrClosed", err)
	}
}

// TestCancelledCampaignRevokesLeases: cancelling ExecuteChunks' context
// aborts the campaign and revokes its outstanding leases.
func TestCancelledCampaignRevokesLeases(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: time.Second, Tick: 50 * time.Millisecond, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.ExecuteChunks(ctx, jobs.Campaign{Key: "camp-c", RunID: "r1", Spec: normSpec(100, 100), Start: 0, Total: 1},
			func(int, citadel.Result) error { return nil })
	}()
	g := leaseEventually(t, c, "w1", 5*time.Second)
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("ExecuteChunks = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExecuteChunks did not return after cancel")
	}
	if c.Heartbeat("w1", g.LeaseID) {
		t.Error("lease of a cancelled campaign still heartbeats")
	}
	if st, err := c.Complete("w1", g.LeaseID, fakeEnvelope("camp-c", 0, 100)); err != nil || st != cluster.CompleteStale {
		t.Errorf("delivery to cancelled campaign = %s, %v; want stale", st, err)
	}
}

// TestDistributedRareEventMatchesLocal extends the determinism contract
// to weighted campaigns: an importance-sampled campaign distributed
// across workers must carry its likelihood-ratio sums through the lease
// protocol and the coordinator's merge fold bit-identically to an
// in-process run on another host shape.
func TestDistributedRareEventMatchesLocal(t *testing.T) {
	spec := jobs.Spec{Reliability: &jobs.ReliabilitySpec{
		Scheme:           "1DP",
		Trials:           4000,
		CheckpointTrials: 500,
		Seed:             7,
		TSVFIT:           1430,
		RareEvent:        true,
		BiasFactor:       8,
	}}
	want := runLocal(t, spec)

	var ref faultsim.Result
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("unmarshal local result: %v", err)
	}
	if !ref.Weighted || ref.FailWeight <= 0 {
		t.Fatalf("local rare campaign carries no weighted signal: %+v", ref)
	}
	setProcs(t, 4)

	h := newHarness(t, cluster.Options{
		LeaseTTL:      2 * time.Second,
		Tick:          50 * time.Millisecond,
		NoWorkerGrace: 10 * time.Second,
	})
	h.startWorker(t, "w0")
	h.startWorker(t, "w1")
	got := runCampaign(t, h.orch, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed weighted result differs from local:\n got %s\nwant %s", got, want)
	}
}
