package cluster_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// parked reads the held-lease-request gauge.
func parked() int64 {
	return obs.Default().Gauge("citadel_cluster_parked_lease_requests", "").Value()
}

// waitParked waits until the held-lease-request gauge reads want.
func waitParked(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("parked lease requests = %d, want %d", parked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

type leaseResult struct {
	grant cluster.LeaseGrant
	ok    bool
}

// leaseAsync asks for a lease in the background.
func leaseAsync(ctx context.Context, c *cluster.Coordinator, workerID string) <-chan leaseResult {
	ch := make(chan leaseResult, 1)
	go func() {
		g, ok := c.Lease(ctx, workerID)
		ch <- leaseResult{g, ok}
	}()
	return ch
}

func recvLease(t *testing.T, ch <-chan leaseResult) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("Lease did not return")
		return leaseResult{}
	}
}

// longHold configures a coordinator whose empty lease requests are held
// for the full maxLeaseHold (10s), far beyond what any test waits.
var longHold = cluster.Options{LeaseTTL: time.Minute, NoWorkerGrace: -1, Logf: nolog}

// TestParkedLeaseGrantedOnRegister: lease requests held with no work are
// granted as soon as a campaign registers, not at the end of their hold
// or at a worker's next poll, and two woken at once get distinct chunks.
func TestParkedLeaseGrantedOnRegister(t *testing.T) {
	c := cluster.New(longHold)
	defer c.Close()
	base := parked()
	workers := []string{"w0", "w1"}
	var got []<-chan leaseResult
	for _, id := range workers {
		got = append(got, leaseAsync(context.Background(), c, id))
	}
	waitParked(t, base+int64(len(workers)))

	start := time.Now()
	run := execAsync(c, jobs.Campaign{Key: "camp-wake", RunID: "r1", Spec: normSpec(200, 100), Start: 0, Total: 2})
	var leased [2]bool
	for i, ch := range got {
		r := recvLease(t, ch)
		if d := time.Since(start); !r.ok || d > 50*time.Millisecond {
			t.Fatalf("held request answered (granted %t) %s after the campaign registered, want a lease within 50ms", r.ok, d)
		}
		if leased[r.grant.Chunk] {
			t.Fatalf("chunk %d leased twice", r.grant.Chunk)
		}
		leased[r.grant.Chunk] = true
		if st, err := c.Complete(workers[i], r.grant.LeaseID, fakeEnvelope("camp-wake", r.grant.Chunk, 100)); err != nil || st != cluster.CompleteAccepted {
			t.Fatalf("Complete = %s, %v; want accepted", st, err)
		}
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}

// TestCloseReleasesParkedLease: Close answers a held request at once, and
// the parked-request gauge counts it while it is held.
func TestCloseReleasesParkedLease(t *testing.T) {
	c := cluster.New(longHold)
	defer c.Close()
	if n := parked(); n != 0 {
		t.Fatalf("parked lease requests = %d before any request, want 0", n)
	}
	got := leaseAsync(context.Background(), c, "w1")
	waitParked(t, 1)

	start := time.Now()
	c.Close()
	r := recvLease(t, got)
	if d := time.Since(start); r.ok || d > time.Second {
		t.Fatalf("held request answered (granted %t) %s after Close, want no lease at once", r.ok, d)
	}
	if n := parked(); n != 0 {
		t.Errorf("parked lease requests = %d after Close released the request, want 0", n)
	}
}

// TestCancelledParkedLeaseTakesNothing: a held request whose context ends
// never takes the chunk that registers afterwards, nor does a request
// made with an ended context while a chunk is pending; the chunks stay
// for the next worker.
func TestCancelledParkedLeaseTakesNothing(t *testing.T) {
	c := cluster.New(longHold)
	defer c.Close()
	base := parked()
	ctx, cancel := context.WithCancel(context.Background())
	got := leaseAsync(ctx, c, "gone")
	waitParked(t, base+1)

	cancel()
	run := execAsync(c, jobs.Campaign{Key: "camp-gone", RunID: "r1", Spec: normSpec(200, 100), Start: 0, Total: 2})
	if r := recvLease(t, got); r.ok {
		t.Fatalf("cancelled request took lease %s of chunk %d", r.grant.LeaseID, r.grant.Chunk)
	}
	g0 := leaseEventually(t, c, "next", 5*time.Second)
	if g, ok := c.Lease(ctx, "gone"); ok {
		t.Fatalf("request with an ended context took lease %s of chunk %d", g.LeaseID, g.Chunk)
	}
	g1 := leaseEventually(t, c, "next", 5*time.Second)
	if g0.Chunk != 0 || g1.Chunk != 1 {
		t.Fatalf("next worker got chunks %d, %d; want 0, 1", g0.Chunk, g1.Chunk)
	}
	for _, w := range c.Workers().Workers {
		if w.ID == "gone" && w.ActiveLeases != 0 {
			t.Errorf("cancelled worker holds %d leases, want 0", w.ActiveLeases)
		}
	}
	for _, g := range []cluster.LeaseGrant{g0, g1} {
		if st, err := c.Complete("next", g.LeaseID, fakeEnvelope("camp-gone", g.Chunk, 100)); err != nil || st != cluster.CompleteAccepted {
			t.Fatalf("Complete chunk %d = %s, %v; want accepted", g.Chunk, st, err)
		}
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}

// TestParkedLeaseGrantedWhenBackoffEnds: a request held while the only
// chunk is backed off is granted when the backoff ends, before its hold
// (1s here) would have answered no work.
func TestParkedLeaseGrantedWhenBackoffEnds(t *testing.T) {
	c := cluster.New(cluster.Options{
		LeaseTTL: 3 * time.Second, RetryBase: 300 * time.Millisecond, RetryMax: 300 * time.Millisecond,
		QuarantineAfter: 100, NoWorkerGrace: -1, Logf: nolog,
	})
	defer c.Close()
	run := execAsync(c, jobs.Campaign{Key: "camp-backoff", RunID: "r1", Spec: normSpec(100, 100), Start: 0, Total: 1})
	g1 := leaseEventually(t, c, "w1", 5*time.Second)
	c.Fail("w1", g1.LeaseID, "synthetic failure") // backs chunk 0 off for 150-300ms

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g2, ok := c.Lease(ctx, "w2")
	d := time.Since(start)
	if !ok {
		t.Fatalf("held request answered no work after %s, want chunk 0 once its backoff ended", d)
	}
	if d < 100*time.Millisecond {
		t.Errorf("chunk 0 granted after %s, inside its 150-300ms backoff", d)
	}
	if st, err := c.Complete("w2", g2.LeaseID, fakeEnvelope("camp-backoff", 0, 100)); err != nil || st != cluster.CompleteAccepted {
		t.Fatalf("Complete = %s, %v; want accepted", st, err)
	}
	run.wait(t)
	if run.err != nil {
		t.Fatalf("ExecuteChunks: %v", run.err)
	}
}
