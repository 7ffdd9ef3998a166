// Package cluster distributes reliability campaigns across worker
// processes, built so that partial failure is the normal case rather
// than the exception — the system-level analogue of the large-granularity
// fault model the Citadel paper studies in silicon.
//
// A Coordinator implements jobs.ChunkExecutor: the orchestrator hands it
// a campaign's chunk range, and the coordinator leases chunks one at a
// time to pulling workers. Each lease has a deadline; heartbeats extend
// it; a lease that expires (worker death, partition, stalled heartbeats)
// requeues its chunk under exponential backoff with jitter, and a worker
// that loses or fails enough consecutive chunks is quarantined so a
// flapping node cannot starve a campaign. Completed chunks are committed
// back to the orchestrator in strictly increasing chunk order — the same
// left-to-right faultsim.Merge fold, and the same per-chunk checkpoint,
// as local execution — so an N-worker campaign is bit-identical to a
// 1-worker or in-process run, a coordinator crash resumes from its last
// checkpoint, and duplicate deliveries (retried POSTs, a reassigned
// chunk finishing twice) dedup by chunk index with nothing lost.
//
// If every worker disappears, the coordinator does not wedge the
// campaign: after NoWorkerGrace with no live workers it returns
// ErrNoWorkers and the orchestrator finishes the remaining chunks
// locally in-process.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	citadel "repro"
	"repro/internal/faultsim"
	"repro/internal/jobs"
)

// Coordinator errors.
var (
	// ErrNoWorkers aborts a campaign that had pending chunks but no live
	// worker for NoWorkerGrace; the jobs orchestrator reacts by running
	// the rest of the campaign locally.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrClosed rejects campaigns after Close.
	ErrClosed = errors.New("cluster: coordinator closed")
)

// Options tunes the lease protocol. The zero value selects defaults
// sized for WAN-ish deployments; tests shrink everything.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 15s). Workers heartbeat at TTL/3, and a worker counts as
	// live for 3×TTL after it last contacted the coordinator.
	LeaseTTL time.Duration
	// Tick is the expiry-scan interval (default LeaseTTL/4).
	Tick time.Duration
	// RetryBase/RetryMax bound the per-chunk reassignment backoff:
	// attempt k waits an exponentially grown, jittered delay in
	// [d/2, d] with d = min(RetryBase<<(k-1), RetryMax) before the
	// chunk may be leased again (defaults 1s, 30s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// QuarantineAfter is the consecutive chunk failures (expiries or
	// explicit fail reports) that quarantine a worker (default 3).
	QuarantineAfter int
	// QuarantineFor is how long a quarantined worker is refused leases
	// (default 1m).
	QuarantineFor time.Duration
	// NoWorkerGrace is how long a campaign with pending chunks may sit
	// with zero live workers before the coordinator hands it back for
	// local execution via ErrNoWorkers (default 10s; negative waits
	// forever).
	NoWorkerGrace time.Duration
	// Seed seeds the backoff-jitter RNG (0 derives from the clock; the
	// jitter does not affect campaign results, only scheduling).
	Seed int64
	// Logf sinks coordinator logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.Tick <= 0 {
		o.Tick = o.LeaseTTL / 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = time.Second
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 30 * time.Second
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 3
	}
	if o.QuarantineFor <= 0 {
		o.QuarantineFor = time.Minute
	}
	if o.NoWorkerGrace == 0 {
		o.NoWorkerGrace = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Per-chunk lease states: pending → leased → done, with leased → pending
// on expiry or failure (backoff applies before the next lease).
const (
	chunkPending uint8 = iota
	chunkLeased
	chunkDone
)

// chunkInfo is the coordinator's view of one chunk of one campaign.
type chunkInfo struct {
	status    uint8
	attempts  int       // lost/failed leases so far, drives backoff
	notBefore time.Time // earliest next lease (backoff)
	leaseID   string    // current lease when status is chunkLeased
}

// campaign is one in-flight distributed campaign.
type campaign struct {
	key   string
	runID string
	spec  jobs.ReliabilitySpec
	total int

	chunks   []chunkInfo
	next     int // next chunk to commit (contiguous prefix is merged)
	buffered map[int]citadel.Result

	commit     func(int, citadel.Result) error
	committing bool // a goroutine is draining buffered commits

	stalledSince time.Time // first tick with zero live workers
	finished     bool
	err          error
	done         chan struct{}
}

// lease is one granted chunk lease.
type lease struct {
	id       string
	workerID string
	cp       *campaign
	chunk    int
	deadline time.Time
}

// workerState is the coordinator's ledger for one worker ID.
type workerState struct {
	id               string
	lastSeen         time.Time
	fails            int // consecutive chunk failures
	quarantinedUntil time.Time
	leases           int
	chunksDone       int64
}

// maxLeaseHold caps how long Lease holds a request that finds no work,
// safely below the worker's default 30s client timeout.
const maxLeaseHold = 10 * time.Second

// Coordinator shards campaigns into chunk leases for pulling workers.
// It implements jobs.ChunkExecutor.
type Coordinator struct {
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond // signals commit-drain completion to aborters
	campaigns map[string]*campaign
	leases    map[string]*lease
	workers   map[string]*workerState
	rng       *rand.Rand
	leaseSeq  int64
	closed    bool
	// wake is closed, and replaced, when new work appears: a campaign
	// registers or a chunk requeues. Held lease requests wait on it.
	wake chan struct{}

	closedCh chan struct{}
	wg       sync.WaitGroup
}

// New builds a Coordinator and starts its expiry ticker.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:      opts,
		campaigns: make(map[string]*campaign),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerState),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		wake:      make(chan struct{}),
		closedCh:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(opts.Tick)
		defer t.Stop()
		for {
			select {
			case <-c.closedCh:
				return
			case now := <-t.C:
				c.tick(now)
			}
		}
	}()
	return c
}

// Close aborts every in-flight campaign with ErrClosed (the orchestrator
// falls back to local execution or parks the job checkpointed) and stops
// the ticker. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.closedCh)
	for _, cp := range c.campaigns {
		c.abortLocked(cp, ErrClosed)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// ExecuteChunks implements jobs.ChunkExecutor: it registers the campaign
// for leasing and blocks until every chunk is committed, the context is
// cancelled, or the campaign is handed back (ErrNoWorkers, ErrClosed).
func (c *Coordinator) ExecuteChunks(ctx context.Context, cam jobs.Campaign, commit func(chunk int, res citadel.Result) error) error {
	switch {
	case commit == nil:
		return fmt.Errorf("cluster: nil commit")
	case cam.Key == "":
		return fmt.Errorf("cluster: campaign without key")
	case cam.Total <= 0 || cam.Start < 0 || cam.Start > cam.Total:
		return fmt.Errorf("cluster: bad chunk range [%d, %d)", cam.Start, cam.Total)
	case cam.Spec.CheckpointTrials <= 0 || cam.Spec.Trials <= 0:
		return fmt.Errorf("cluster: unnormalized spec (trials=%d, checkpointTrials=%d)",
			cam.Spec.Trials, cam.Spec.CheckpointTrials)
	}
	if cam.Start == cam.Total {
		return nil
	}
	cp := &campaign{
		key:      cam.Key,
		runID:    cam.RunID,
		spec:     cam.Spec,
		total:    cam.Total,
		chunks:   make([]chunkInfo, cam.Total),
		next:     cam.Start,
		buffered: make(map[int]citadel.Result),
		commit:   commit,
		done:     make(chan struct{}),
	}
	for i := 0; i < cam.Start; i++ {
		cp.chunks[i].status = chunkDone
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.campaigns[cp.key] != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: campaign %.12s already active", cp.key)
	}
	c.campaigns[cp.key] = cp
	mActiveCampaigns.Set(int64(len(c.campaigns)))
	c.wakeLocked()
	c.mu.Unlock()
	c.opts.Logf("cluster: campaign=%.12s run=%s chunks %d..%d registered", cp.key, cp.runID, cam.Start, cam.Total)

	select {
	case <-cp.done:
	case <-ctx.Done():
		c.mu.Lock()
		c.abortLocked(cp, ctx.Err())
		c.mu.Unlock()
	case <-c.closedCh:
		c.mu.Lock()
		c.abortLocked(cp, ErrClosed)
		c.mu.Unlock()
	}
	// abortLocked/finishLocked close done only after any in-flight
	// commit drain has drained, so once we pass this receive no commit
	// callback is running or will run — the orchestrator may safely
	// resume local execution on the same accumulator.
	<-cp.done
	c.mu.Lock()
	err := cp.err
	c.mu.Unlock()
	return err
}

// finishLocked completes a campaign: every chunk committed.
func (c *Coordinator) finishLocked(cp *campaign) {
	if cp.finished {
		return
	}
	cp.finished = true
	delete(c.campaigns, cp.key)
	mActiveCampaigns.Set(int64(len(c.campaigns)))
	c.dropCampaignLeasesLocked(cp)
	close(cp.done)
	c.opts.Logf("cluster: campaign=%.12s run=%s complete (%d chunks)", cp.key, cp.runID, cp.total)
}

// abortLocked hands a campaign back with err. It waits out any in-flight
// commit drain before closing done, so callers of ExecuteChunks never
// race a live commit callback.
func (c *Coordinator) abortLocked(cp *campaign, err error) {
	if cp.finished {
		return
	}
	cp.finished = true
	cp.err = err
	delete(c.campaigns, cp.key)
	mActiveCampaigns.Set(int64(len(c.campaigns)))
	c.dropCampaignLeasesLocked(cp)
	for cp.committing {
		c.cond.Wait()
	}
	close(cp.done)
	c.opts.Logf("cluster: campaign=%.12s run=%s aborted at chunk %d/%d: %v", cp.key, cp.runID, cp.next, cp.total, err)
}

// dropCampaignLeasesLocked revokes every lease of cp; holders learn on
// their next heartbeat and abandon the chunk.
func (c *Coordinator) dropCampaignLeasesLocked(cp *campaign) {
	for id, l := range c.leases {
		if l.cp == cp {
			if w := c.workers[l.workerID]; w != nil && w.leases > 0 {
				w.leases--
			}
			delete(c.leases, id)
		}
	}
}

// touchLocked records contact from a worker, creating its ledger entry
// on first sight.
func (c *Coordinator) touchLocked(workerID string, now time.Time) *workerState {
	w := c.workers[workerID]
	if w == nil {
		w = &workerState{id: workerID}
		c.workers[workerID] = w
		c.opts.Logf("cluster: worker=%s first contact", workerID)
	}
	w.lastSeen = now
	return w
}

// wakeLocked releases every held lease request to scan again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Lease grants one chunk to workerID. When no chunk is leasable it holds
// the request until new work appears, a backed-off chunk or the worker's
// quarantine comes due, or the hold (LeaseTTL/3, at most maxLeaseHold)
// ends; it reports no work then, or at once when ctx ends or the
// coordinator closes. A request whose ctx has ended never takes a lease,
// though it still counts as contact from the worker.
func (c *Coordinator) Lease(ctx context.Context, workerID string) (LeaseGrant, bool) {
	var hold <-chan time.Time // armed when the request first parks
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return LeaseGrant{}, false
		}
		grant, ok, retryIn := c.grantLocked(ctx, workerID, time.Now())
		wake := c.wake
		c.mu.Unlock()
		if ok {
			return grant, true
		}
		if hold == nil {
			t := time.NewTimer(min(c.opts.LeaseTTL/3, maxLeaseHold))
			defer t.Stop()
			hold = t.C
			mParkedLeases.Inc()
			defer mParkedLeases.Dec()
		}
		if !c.await(ctx, wake, hold, retryIn) {
			return LeaseGrant{}, false
		}
	}
}

// await parks a lease request. It reports true when the request should
// scan again: wake closed, or retryIn (when positive) passed. It reports
// false when the hold ends, ctx ends or the coordinator closes.
func (c *Coordinator) await(ctx context.Context, wake <-chan struct{}, hold <-chan time.Time, retryIn time.Duration) bool {
	var retry <-chan time.Time
	if retryIn > 0 {
		t := time.NewTimer(retryIn)
		defer t.Stop()
		retry = t.C
	}
	select {
	case <-wake:
		return true
	case <-retry:
		return true
	case <-hold:
	case <-ctx.Done():
	case <-c.closedCh:
	}
	return false
}

// grantLocked scans for a leasable chunk and leases it to workerID,
// unless ctx has ended. With none, it returns how long until one may
// become leasable to this worker (a backoff or its quarantine ending), or
// 0 if only new work can help.
func (c *Coordinator) grantLocked(ctx context.Context, workerID string, now time.Time) (LeaseGrant, bool, time.Duration) {
	w := c.touchLocked(workerID, now)
	if ctx.Err() != nil {
		return LeaseGrant{}, false, 0
	}
	if now.Before(w.quarantinedUntil) {
		return LeaseGrant{}, false, w.quarantinedUntil.Sub(now)
	}
	var retryIn time.Duration
	// Deterministic scan order keeps scheduling fair across campaigns.
	keys := make([]string, 0, len(c.campaigns))
	for k := range c.campaigns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cp := c.campaigns[k]
		for i := cp.next; i < cp.total; i++ {
			ci := &cp.chunks[i]
			if ci.status != chunkPending {
				continue
			}
			if d := ci.notBefore.Sub(now); d > 0 {
				if retryIn == 0 || d < retryIn {
					retryIn = d
				}
				continue
			}
			c.leaseSeq++
			id := fmt.Sprintf("l-%d", c.leaseSeq)
			ci.status = chunkLeased
			ci.leaseID = id
			c.leases[id] = &lease{id: id, workerID: workerID, cp: cp, chunk: i, deadline: now.Add(c.opts.LeaseTTL)}
			w.leases++
			mLeasesGranted.Inc()
			return LeaseGrant{
				LeaseID:     id,
				CampaignKey: cp.key,
				RunID:       cp.runID,
				Chunk:       i,
				Trials:      cp.spec.ChunkTrials(i),
				Spec:        cp.spec,
				TTLMillis:   c.opts.LeaseTTL.Milliseconds(),
			}, true, 0
		}
	}
	return LeaseGrant{}, false, retryIn
}

// Heartbeat extends a lease. False means the lease is gone — expired and
// reassigned, or its campaign ended — and the worker must abandon the
// chunk.
func (c *Coordinator) Heartbeat(workerID, leaseID string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(workerID, now)
	l := c.leases[leaseID]
	if l == nil || l.workerID != workerID {
		return false
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	mHeartbeats.Inc()
	return true
}

// Complete delivers a chunk result. Idempotent by chunk index: an
// already-merged chunk answers CompleteDuplicate and the payload is
// discarded (chunk results are deterministic, so duplicates are
// interchangeable). A result for an unknown campaign answers
// CompleteStale. Malformed envelopes are errors and count toward the
// worker's quarantine threshold.
func (c *Coordinator) Complete(workerID, leaseID string, env faultsim.ChunkEnvelope) (CompleteStatus, error) {
	now := time.Now()
	c.mu.Lock()
	w := c.touchLocked(workerID, now)
	cp := c.campaigns[env.CampaignKey]
	if cp == nil {
		mStaleResults.Inc()
		c.mu.Unlock()
		return CompleteStale, nil
	}
	err := env.Validate()
	if err == nil && env.Chunk >= cp.total {
		err = fmt.Errorf("cluster: chunk %d out of range [0, %d)", env.Chunk, cp.total)
	}
	if err == nil && env.Trials != cp.spec.ChunkTrials(env.Chunk) {
		err = fmt.Errorf("cluster: chunk %d expects %d trials, got %d",
			env.Chunk, cp.spec.ChunkTrials(env.Chunk), env.Trials)
	}
	if err != nil {
		c.workerFailureLocked(w, now, err.Error())
		c.mu.Unlock()
		return "", err
	}
	ci := &cp.chunks[env.Chunk]
	if ci.status == chunkDone {
		c.releaseLeaseLocked(leaseID, workerID)
		mDuplicateResults.Inc()
		c.mu.Unlock()
		return CompleteDuplicate, nil
	}
	// Accept the work whoever delivers it first: if the chunk was
	// reassigned and this is the original (slow) worker racing the new
	// lease holder, the result is identical either way. Revoke whichever
	// lease is currently attached so the other holder stops early.
	if ci.leaseID != "" {
		c.releaseLeaseLocked(ci.leaseID, "")
	}
	c.releaseLeaseLocked(leaseID, workerID)
	ci.status = chunkDone
	ci.leaseID = ""
	w.fails = 0
	w.chunksDone++
	cp.buffered[env.Chunk] = env.Result
	mChunksCompleted.Inc()
	c.mu.Unlock()
	c.drainCommits(cp)
	return CompleteAccepted, nil
}

// releaseLeaseLocked removes a lease (when owner is non-empty, only if
// held by that worker) and decrements its holder's lease count.
func (c *Coordinator) releaseLeaseLocked(leaseID, owner string) {
	l := c.leases[leaseID]
	if l == nil || (owner != "" && l.workerID != owner) {
		return
	}
	if w := c.workers[l.workerID]; w != nil && w.leases > 0 {
		w.leases--
	}
	delete(c.leases, leaseID)
}

// drainCommits folds buffered results into the campaign in chunk order,
// calling commit outside the coordinator lock. The committing flag
// serializes drains so commits stay ordered; aborters wait for it.
func (c *Coordinator) drainCommits(cp *campaign) {
	c.mu.Lock()
	if cp.committing || cp.finished {
		c.mu.Unlock()
		return
	}
	cp.committing = true
	for !cp.finished {
		res, ok := cp.buffered[cp.next]
		if !ok {
			break
		}
		chunk := cp.next
		delete(cp.buffered, chunk)
		c.mu.Unlock()
		err := cp.commit(chunk, res)
		c.mu.Lock()
		if err != nil {
			cp.committing = false
			c.cond.Broadcast()
			c.abortLocked(cp, err)
			c.mu.Unlock()
			return
		}
		cp.next = chunk + 1
	}
	cp.committing = false
	c.cond.Broadcast()
	if !cp.finished && cp.next == cp.total {
		c.finishLocked(cp)
	}
	c.mu.Unlock()
}

// Fail reports that a worker could not run its leased chunk; the chunk
// requeues immediately (under backoff) instead of waiting out the lease.
func (c *Coordinator) Fail(workerID, leaseID, reason string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchLocked(workerID, now)
	l := c.leases[leaseID]
	if l == nil || l.workerID != workerID {
		return
	}
	c.requeueChunkLocked(l, now)
	c.workerFailureLocked(w, now, reason)
}

// requeueChunkLocked returns a leased chunk to pending with exponential
// backoff + jitter, and drops the lease.
func (c *Coordinator) requeueChunkLocked(l *lease, now time.Time) {
	ci := &l.cp.chunks[l.chunk]
	if ci.status == chunkLeased && ci.leaseID == l.id {
		ci.status = chunkPending
		ci.leaseID = ""
		ci.attempts++
		ci.notBefore = now.Add(c.backoffLocked(ci.attempts))
		mReassignments.Inc()
		c.wakeLocked()
	}
	c.releaseLeaseLocked(l.id, "")
}

// backoffLocked returns the jittered exponential delay for the k-th
// lost lease of a chunk: uniform in [d/2, d], d = min(base<<(k-1), max).
func (c *Coordinator) backoffLocked(attempts int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempts && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// workerFailureLocked charges one chunk failure to a worker and
// quarantines it past the threshold.
func (c *Coordinator) workerFailureLocked(w *workerState, now time.Time, reason string) {
	w.fails++
	if w.fails >= c.opts.QuarantineAfter && !now.Before(w.quarantinedUntil) {
		w.quarantinedUntil = now.Add(c.opts.QuarantineFor)
		w.fails = 0
		mQuarantines.Inc()
		c.opts.Logf("cluster: worker=%s quarantined for %s after %d consecutive failures (last: %s)",
			w.id, c.opts.QuarantineFor, c.opts.QuarantineAfter, reason)
	}
}

// tick expires overdue leases, refreshes the live-worker gauge, and
// aborts campaigns that have outwaited NoWorkerGrace with no live
// workers.
func (c *Coordinator) tick(now time.Time) {
	c.mu.Lock()
	for _, l := range c.leases {
		if now.After(l.deadline) {
			mLeaseExpiries.Inc()
			c.opts.Logf("cluster: lease=%s worker=%s campaign=%.12s chunk=%d expired; requeueing",
				l.id, l.workerID, l.cp.key, l.chunk)
			c.requeueChunkLocked(l, now)
			if w := c.workers[l.workerID]; w != nil {
				c.workerFailureLocked(w, now, "lease expired")
			}
		}
	}
	live := c.liveWorkersLocked(now)
	mLiveWorkers.Set(int64(live))
	var aborts []*campaign
	for _, cp := range c.campaigns {
		if live > 0 {
			cp.stalledSince = time.Time{}
			continue
		}
		switch {
		case cp.stalledSince.IsZero():
			cp.stalledSince = now
		case c.opts.NoWorkerGrace >= 0 && now.Sub(cp.stalledSince) >= c.opts.NoWorkerGrace:
			aborts = append(aborts, cp)
		}
	}
	for _, cp := range aborts {
		mCampaignsFellBack.Inc()
		c.abortLocked(cp, ErrNoWorkers)
	}
	c.mu.Unlock()
}

// live reports whether w counts as live at now: it contacted the
// coordinator within the last three lease TTLs and is not quarantined.
func (c *Coordinator) live(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) <= 3*c.opts.LeaseTTL && !now.Before(w.quarantinedUntil)
}

// liveWorkersLocked counts the live workers.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if c.live(w, now) {
			n++
		}
	}
	return n
}

// LeaseTTL reports the configured lease TTL, echoed to workers in
// heartbeat responses.
func (c *Coordinator) LeaseTTL() time.Duration { return c.opts.LeaseTTL }

// LiveWorkers reports the current live-worker count (readyz).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

// Workers returns the ops view of every worker ever seen.
func (c *Coordinator) Workers() WorkersResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := WorkersResponse{Workers: make([]WorkerInfo, 0, len(c.workers))}
	for _, w := range c.workers {
		live := c.live(w, now)
		if live {
			out.LiveWorkers++
		}
		out.Workers = append(out.Workers, WorkerInfo{
			ID:                w.id,
			Live:              live,
			LastSeenMillisAgo: now.Sub(w.lastSeen).Milliseconds(),
			ActiveLeases:      w.leases,
			ChunksDone:        w.chunksDone,
			ConsecutiveFails:  w.fails,
			Quarantined:       now.Before(w.quarantinedUntil),
		})
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].ID < out.Workers[j].ID })
	return out
}
