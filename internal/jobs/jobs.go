// Package jobs is the in-process durable job orchestrator: long-running
// simulation campaigns are submitted asynchronously, queued under a
// bounded priority queue, executed by a fixed pool of worker goroutines
// driving the existing context-aware engine APIs, and — for reliability
// campaigns — periodically checkpointed into a content-addressed store
// (internal/store) so a killed process resumes a campaign instead of
// restarting it.
//
// Determinism model: a reliability campaign of T trials runs as
// ceil(T/C) chunks of C = CheckpointTrials trials. Chunk i runs trials
// [i·C, (i+1)·C) of the base seed (faultsim.SeedAt), each drawn from its
// own stream, so neither the worker count nor the host changes it, and
// the chunk results fold left-to-right through faultsim.Merge. The
// merged result is therefore a pure function of the normalized spec, so
// resuming from any checkpoint reproduces the uninterrupted campaign
// bit for bit, and the normalized spec's SHA-256 addresses the result in
// the store: a repeated identical request is served from cache with zero
// new trials.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	citadel "repro"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/store"
	"repro/internal/stream"
)

// Submission errors.
var (
	// ErrQueueFull rejects a submit when the bounded queue is at
	// capacity. The HTTP layer maps it to 429 with a Retry-After hint
	// derived from the queue depth.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submits after Close.
	ErrClosed = errors.New("jobs: orchestrator closed")
	// ErrNotFound marks an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished rejects cancelling a job that already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
)

// State is a job's lifecycle state.
type State string

// Job states: queued → running → done | failed | cancelled. An
// interrupted job (orchestrator shutdown mid-run) returns to queued; its
// checkpoint re-enqueues it in the next process.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options configures an Orchestrator.
type Options struct {
	// Store persists checkpoints and caches results. Nil runs volatile:
	// no dedup cache, no resume.
	Store *store.Store
	// Workers is the number of campaign-executing goroutines (default 1;
	// each campaign parallelizes internally via the engine's own worker
	// pool, so more orchestrator workers mainly help mixed small jobs).
	Workers int
	// QueueDepth bounds the jobs waiting to run (default 64). Submits
	// past it fail with ErrQueueFull.
	QueueDepth int
	// ChunkExec, when non-nil, executes reliability chunks out of
	// process (internal/cluster leases them to citadel-worker nodes).
	// It is best-effort: if it fails, the campaign falls back to local
	// in-process execution from its last committed chunk.
	ChunkExec ChunkExecutor
	// Stream, when non-nil, receives a Job snapshot on every lifecycle
	// transition and progress update, published under the job's ID:
	// non-terminal snapshots as "progress" events, terminal ones named
	// by their state (done/failed/cancelled). The hub marshals each
	// snapshot once and fans the same frame out to every SSE subscriber
	// (GET /api/v1/jobs/{id}/events).
	Stream *stream.Hub
	// Logf sinks orchestrator logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Job is a caller-facing snapshot of one campaign.
type Job struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`

	State State `json:"state"`
	// Cached marks a job served entirely from the content-addressed
	// store: no simulation ran.
	Cached bool `json:"cached,omitempty"`
	// Resumed marks a job that continued from a persisted checkpoint
	// instead of starting at chunk zero.
	Resumed bool `json:"resumed,omitempty"`

	// ChunksDone/TotalChunks report checkpoint progress (reliability
	// campaigns; zero for other kinds).
	ChunksDone  int `json:"chunksDone,omitempty"`
	TotalChunks int `json:"totalChunks,omitempty"`
	// TrialsDone/TrialsTarget/Failures mirror the engine's live progress
	// snapshot for reliability campaigns.
	TrialsDone   int `json:"trialsDone,omitempty"`
	TrialsTarget int `json:"trialsTarget,omitempty"`
	Failures     int `json:"failures,omitempty"`

	// Result holds the JSON payload once State is done: a
	// citadel.Result for reliability, a PerformanceResult for
	// performance, an experiments.Report for experiment jobs.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the failure reason when State is failed.
	Error string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
}

// PerformanceResult is the payload of a performance job: the baseline
// run (same benchmark, default layout, no protection) plus the requested
// configuration, so clients can derive normalized ratios.
type PerformanceResult struct {
	Base citadel.PerfResult `json:"base"`
	Run  citadel.PerfResult `json:"run"`
}

// checkpoint is the persisted form of an unfinished job, stored under
// its spec key. Result carries the merge of all completed chunks; a
// chunk interrupted mid-run is discarded (its partial statistics would
// break determinism) and re-runs on resume. decodeCheckpoint admits only
// a checkpoint that belongs to the campaign its key addresses.
type checkpoint struct {
	Version     int             `json:"version"`
	Key         string          `json:"key"`
	Spec        Spec            `json:"spec"`
	ChunksDone  int             `json:"chunksDone"`
	TotalChunks int             `json:"totalChunks"`
	Result      *citadel.Result `json:"result,omitempty"`
	UpdatedAt   time.Time       `json:"updatedAt"`
}

// checkpointVersion is hashed into every Spec.Key. Version 2 draws each
// trial from its own stream (version 1 drew one stream per worker).
const checkpointVersion = 2

// job is the internal mutable record behind a Job snapshot. mu guards
// the embedded Job, except ID, Key and Spec (normalized), which never
// change after creation and may be read without it.
type job struct {
	seq int64

	mu sync.Mutex
	Job
	userCancel bool
	cancelRun  context.CancelFunc
	done       chan struct{}
}

func (j *job) snapshot() *Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked is snapshot for a caller that holds j.mu.
func (j *job) snapshotLocked() *Job {
	snap := j.Job
	return &snap
}

// publish streams a snapshot of j to the hub, if one is wired: one JSON
// marshal per snapshot, fanned out to every subscriber of the job's
// topic. The event name is "progress" for non-terminal snapshots and
// the state name for terminal ones, so SSE clients can listen for the
// outcome they care about.
func (o *Orchestrator) publish(j *job) {
	if o.opts.Stream == nil {
		return
	}
	o.logPublish(j, o.send(j.snapshot()))
}

// send publishes snap to the hub, if one is wired, under the event name
// publish describes.
func (o *Orchestrator) send(snap *Job) error {
	if o.opts.Stream == nil {
		return nil
	}
	event := "progress"
	if snap.State.Terminal() {
		event = string(snap.State)
	}
	if err := o.opts.Stream.Publish(snap.ID, event, snap, snap.State.Terminal()); err != nil {
		return fmt.Errorf("streaming %s event: %w", event, err)
	}
	return nil
}

// logPublish logs err, a failed publish of j's snapshot, if any.
func (o *Orchestrator) logPublish(j *job, err error) {
	if err != nil {
		o.opts.Logf("jobs: job=%s %v", j.ID, err)
	}
}

// settleLocked moves j, whose mu the caller holds, to the terminal state
// st. It publishes the terminal frame before the caller releases j.mu,
// and Status reads j under that lock, so no status read sees st before
// the hub holds its frame: a client that reads a terminal status and
// then subscribes is replayed the terminal frame, never a stale progress
// one. Publishing under the lock is safe because the hub never blocks a
// publisher. The caller logs the returned publish error after releasing
// j.mu, since Logf may read the job.
func (o *Orchestrator) settleLocked(j *job, st State) error {
	j.State = st
	j.Finished = time.Now()
	err := o.send(j.snapshotLocked())
	close(j.done)
	return err
}

// Orchestrator runs campaigns from a bounded priority queue on a fixed
// worker pool, checkpointing and caching through an optional store.
type Orchestrator struct {
	opts Options
	st   *store.Store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job          // pending, popped by (priority desc, seq asc)
	jobs   map[string]*job // by ID, every job ever submitted this process
	byKey  map[string]*job // active (queued/running) job per content key
	seq    int64
	closed bool

	idPrefix string
	idSeq    atomic.Uint64
}

// New builds an Orchestrator and starts its workers.
func New(opts Options) *Orchestrator {
	opts = opts.withDefaults()
	o := &Orchestrator{
		opts:     opts,
		st:       opts.Store,
		jobs:     make(map[string]*job),
		byKey:    make(map[string]*job),
		idPrefix: newIDPrefix(),
	}
	o.cond = sync.NewCond(&o.mu)
	o.ctx, o.cancel = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		o.wg.Add(1)
		go o.worker()
	}
	return o
}

// newIDPrefix gives each orchestrator instance a random ID prefix so job
// IDs from different processes (or restarts) don't collide in logs.
func newIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
}

func (o *Orchestrator) newJobID() string {
	return fmt.Sprintf("j-%s-%d", o.idPrefix, o.idSeq.Add(1))
}

// Workers returns the worker-pool size.
func (o *Orchestrator) Workers() int { return o.opts.Workers }

// QueueCap returns the queue bound.
func (o *Orchestrator) QueueCap() int { return o.opts.QueueDepth }

// QueueDepth returns the number of jobs waiting to run.
func (o *Orchestrator) QueueDepth() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.queue)
}

// Submit validates, deduplicates, and enqueues a campaign.
//
//   - A result already in the store completes the job immediately
//     (Cached, no simulation).
//   - An active job with the same content key is returned as-is
//     (coalescing): both callers observe the same job ID.
//   - A persisted checkpoint with the same key resumes from its last
//     chunk (Resumed).
//
// The queue bound applies only to genuinely new work; full queues
// report ErrQueueFull.
func (o *Orchestrator) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	norm := spec.Normalize()
	key, err := norm.Key()
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, ErrClosed
	}
	if j := o.byKey[key]; j != nil {
		// Coalesce: same campaign already queued or running.
		return j.snapshot(), nil
	}
	if snap := o.tryCacheLocked(key, norm); snap != nil {
		return snap, nil
	}
	cp := o.loadCheckpoint(key)
	if len(o.queue) >= o.opts.QueueDepth {
		mShed.Inc()
		return nil, ErrQueueFull
	}
	j := o.enqueueLocked(key, norm, cp)
	return j.snapshot(), nil
}

// tryCacheLocked completes a submit from the content-addressed store.
// A stored payload that is not valid JSON is treated as corruption:
// deleted, logged, and reported as a miss.
func (o *Orchestrator) tryCacheLocked(key string, norm Spec) *Job {
	if o.st == nil {
		return nil
	}
	data, ok := o.st.GetResult(key)
	if !ok {
		return nil
	}
	if !json.Valid(data) {
		o.opts.Logf("jobs: corrupted cached result %s; discarding", key)
		o.st.DeleteResult(key)
		return nil
	}
	now := time.Now()
	j := &job{Job: Job{
		ID: o.newJobID(), Key: key, Spec: norm,
		State: StateDone, Cached: true, Result: data,
		Created: now, Started: now, Finished: now,
	}, done: make(chan struct{})}
	close(j.done)
	o.jobs[j.ID] = j
	mSubmitted.Inc()
	mCacheHits.Inc()
	mCompleted.Inc()
	o.opts.Logf("jobs: job=%s key=%.12s kind=%s served from cache", j.ID, key, norm.Kind)
	o.publish(j)
	return j.snapshot()
}

// decodeCheckpoint is the one decoder of a persisted checkpoint, the
// data stored under key. It admits a checkpoint only if it is of the
// current version and belongs to the campaign key addresses: its spec
// validates and hashes to key, 0 <= ChunksDone <= the campaign's chunk
// count, a Result is present exactly when ChunksDone > 0, and that
// Result holds exactly the trials of those chunks. The admitted spec is
// normalized.
func decodeCheckpoint(key string, data []byte) (*checkpoint, error) {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Key != key {
		return nil, fmt.Errorf("key field %.12s", cp.Key)
	}
	if err := cp.Spec.Validate(); err != nil {
		return nil, err
	}
	cp.Spec = cp.Spec.Normalize()
	if specKey, err := cp.Spec.Key(); err != nil || specKey != key {
		return nil, fmt.Errorf("spec of another campaign (key %.12s)", specKey)
	}
	r, chunks := cp.Spec.Reliability, 0
	if r != nil {
		chunks = totalChunks(r)
	}
	if cp.ChunksDone < 0 || cp.ChunksDone > chunks {
		return nil, fmt.Errorf("%d of %d chunks done", cp.ChunksDone, chunks)
	}
	if (cp.Result != nil) != (cp.ChunksDone > 0) {
		return nil, fmt.Errorf("%d chunks done, result present %v", cp.ChunksDone, cp.Result != nil)
	}
	if cp.Result != nil {
		if want := min(cp.ChunksDone*r.CheckpointTrials, r.Trials); cp.Result.Trials != want {
			return nil, fmt.Errorf("%d chunks done hold %d trials, not %d", cp.ChunksDone, want, cp.Result.Trials)
		}
	}
	return &cp, nil
}

// loadCheckpoint returns the checkpoint the store holds for key, if
// decodeCheckpoint admits it.
func (o *Orchestrator) loadCheckpoint(key string) *checkpoint {
	if o.st == nil {
		return nil
	}
	data, ok := o.st.GetJob(key)
	if !ok {
		return nil
	}
	return o.admitCheckpoint(key, data)
}

// admitCheckpoint decodes data, the checkpoint stored under key. One
// that decodeCheckpoint refuses is deleted with a warning, so its
// campaign restarts from scratch.
func (o *Orchestrator) admitCheckpoint(key string, data []byte) *checkpoint {
	cp, err := decodeCheckpoint(key, data)
	if err != nil {
		o.opts.Logf("jobs: discarding checkpoint %.12s (%v); its campaign restarts from scratch", key, err)
		o.st.DeleteJob(key)
	}
	return cp
}

// enqueueLocked creates the job record, persists its initial checkpoint
// (so a crash before the first chunk still recovers the submission), and
// wakes a worker.
func (o *Orchestrator) enqueueLocked(key string, norm Spec, cp *checkpoint) *job {
	o.seq++
	j := &job{Job: Job{
		ID: o.newJobID(), Key: key, Spec: norm,
		State: StateQueued, Created: time.Now(),
	}, seq: o.seq, done: make(chan struct{})}
	if cp != nil {
		j.Resumed = cp.ChunksDone > 0
		j.ChunksDone = cp.ChunksDone
		if cp.Result != nil {
			j.TrialsDone = cp.Result.Trials
			j.Failures = cp.Result.Failures
		}
		if j.Resumed {
			mResumed.Inc()
		}
	} else {
		o.persistCheckpoint(j, nil)
	}
	if r := norm.Reliability; r != nil {
		j.TotalChunks = totalChunks(r)
		j.TrialsTarget = r.Trials
	}
	o.jobs[j.ID] = j
	o.byKey[key] = j
	o.queue = append(o.queue, j)
	mSubmitted.Inc()
	mQueueDepth.Set(int64(len(o.queue)))
	o.opts.Logf("jobs: job=%s key=%.12s kind=%s priority=%d queued (resumedChunks=%d)",
		j.ID, key, norm.Kind, norm.Priority, j.ChunksDone)
	o.publish(j)
	o.cond.Signal()
	return j
}

// totalChunks returns the chunk count of a normalized reliability spec.
func totalChunks(r *ReliabilitySpec) int {
	return (r.Trials + r.CheckpointTrials - 1) / r.CheckpointTrials
}

// Recover re-enqueues every checkpoint in the store that
// decodeCheckpoint admits: the server calls it once at startup so
// campaigns interrupted by a crash or SIGTERM continue. Every other
// checkpoint is deleted with a warning.
// It returns the number of jobs re-enqueued.
func (o *Orchestrator) Recover() int {
	if o.st == nil {
		return 0
	}
	n := 0
	for key, data := range o.st.ListJobs() {
		cp := o.admitCheckpoint(key, data)
		if cp == nil {
			continue
		}
		o.mu.Lock()
		if o.closed || o.byKey[key] != nil {
			o.mu.Unlock()
			continue
		}
		// Recovered jobs bypass the queue bound: they were admitted by a
		// previous process and rejecting them now would drop durable work.
		o.enqueueLocked(key, cp.Spec, cp)
		o.mu.Unlock()
		n++
	}
	if n > 0 {
		o.opts.Logf("jobs: recovered %d checkpointed campaign(s)", n)
	}
	return n
}

// Status returns a snapshot of the job, if known to this process.
func (o *Orchestrator) Status(id string) (*Job, bool) {
	o.mu.Lock()
	j := o.jobs[id]
	o.mu.Unlock()
	if j == nil {
		return nil, false
	}
	return j.snapshot(), true
}

// List returns snapshots of every job known to this process, in
// submission order.
func (o *Orchestrator) List() []*Job {
	o.mu.Lock()
	all := make([]*job, 0, len(o.jobs))
	for _, j := range o.jobs {
		all = append(all, j)
	}
	o.mu.Unlock()
	out := make([]*Job, 0, len(all))
	for _, j := range all {
		out = append(out, j.snapshot())
	}
	sortJobs(out)
	return out
}

func sortJobs(js []*Job) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].Created.Before(js[k-1].Created); k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (o *Orchestrator) Wait(ctx context.Context, id string) (*Job, error) {
	o.mu.Lock()
	j := o.jobs[id]
	o.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Cancel stops a job. A queued job is removed immediately; a running
// job's context is cancelled and the worker marks it cancelled at the
// next cancellation point. A user-cancelled job's checkpoint is deleted:
// cancellation is a statement that the work is unwanted, so it must not
// resurrect on restart.
func (o *Orchestrator) Cancel(id string) error {
	o.mu.Lock()
	j := o.jobs[id]
	if j == nil {
		o.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.State.Terminal():
		j.mu.Unlock()
		o.mu.Unlock()
		return ErrFinished
	case j.State == StateQueued:
		j.userCancel = true
		pubErr := o.settleLocked(j, StateCancelled)
		j.mu.Unlock()
		o.dropQueuedLocked(j)
		delete(o.byKey, j.Key)
		o.mu.Unlock()
		if o.st != nil {
			o.st.DeleteJob(j.Key)
		}
		mCancelled.Inc()
		o.opts.Logf("jobs: job=%s cancelled while queued", j.ID)
		o.logPublish(j, pubErr)
		return nil
	default: // running
		j.userCancel = true
		cancel := j.cancelRun
		j.mu.Unlock()
		o.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	}
}

// dropQueuedLocked removes j from the pending queue.
func (o *Orchestrator) dropQueuedLocked(j *job) {
	for i, q := range o.queue {
		if q == j {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			break
		}
	}
	mQueueDepth.Set(int64(len(o.queue)))
}

// Close stops the orchestrator: no new submits, running campaigns are
// cancelled (their latest complete chunk is already checkpointed, so a
// restarted process resumes them), and workers are joined. It returns
// ctx's error if the workers do not drain in time.
func (o *Orchestrator) Close(ctx context.Context) error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	o.cond.Broadcast()
	o.mu.Unlock()
	o.cancel()
	done := make(chan struct{})
	go func() {
		o.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// next blocks until a job is available or the orchestrator closes.
func (o *Orchestrator) next() *job {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.closed {
			return nil
		}
		if j := o.popLocked(); j != nil {
			return j
		}
		o.cond.Wait()
	}
}

// popLocked removes the best pending job: highest priority, FIFO within
// a priority.
func (o *Orchestrator) popLocked() *job {
	best := -1
	for i, j := range o.queue {
		if best < 0 ||
			j.Spec.Priority > o.queue[best].Spec.Priority ||
			(j.Spec.Priority == o.queue[best].Spec.Priority && j.seq < o.queue[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	j := o.queue[best]
	o.queue = append(o.queue[:best], o.queue[best+1:]...)
	mQueueDepth.Set(int64(len(o.queue)))
	return j
}

func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		j := o.next()
		if j == nil {
			return
		}
		o.runJob(j)
	}
}

// runJob executes one campaign to a terminal state (or back to queued on
// orchestrator shutdown).
func (o *Orchestrator) runJob(j *job) {
	ctx, cancel := context.WithCancel(o.ctx)
	defer cancel()
	j.mu.Lock()
	if j.State != StateQueued {
		// Cancelled between pop and start.
		j.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Started = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	mRunning.Inc()
	defer mRunning.Dec()
	o.opts.Logf("jobs: job=%s key=%.12s kind=%s start", j.ID, j.Key, j.Spec.Kind)
	o.publish(j)

	var payload any
	var interrupted bool
	var runErr error
	switch j.Spec.Kind {
	case KindReliability:
		payload, interrupted, runErr = o.runReliability(ctx, j)
	case KindPerformance:
		payload, interrupted, runErr = o.runPerformance(ctx, j)
	case KindExperiment:
		payload, interrupted, runErr = o.runExperiment(ctx, j)
	default:
		runErr = fmt.Errorf("jobs: unknown kind %q", j.Spec.Kind)
	}

	switch {
	case interrupted:
		o.finishInterrupted(j)
	case runErr != nil:
		o.finish(j, StateFailed, nil, runErr)
	default:
		data, err := json.Marshal(payload)
		if err != nil {
			o.finish(j, StateFailed, nil, fmt.Errorf("jobs: encoding result: %w", err))
			return
		}
		if o.st != nil {
			if err := o.st.PutResult(j.Key, data); err != nil {
				o.opts.Logf("jobs: job=%s caching result: %v", j.ID, err)
			}
			o.st.DeleteJob(j.Key)
		}
		o.finish(j, StateDone, data, nil)
	}
}

// finish moves j to a terminal state.
func (o *Orchestrator) finish(j *job, st State, payload json.RawMessage, err error) {
	o.mu.Lock()
	delete(o.byKey, j.Key)
	o.mu.Unlock()
	j.mu.Lock()
	j.Result = payload
	if err != nil {
		j.Error = err.Error()
	}
	pubErr := o.settleLocked(j, st)
	j.mu.Unlock()
	switch st {
	case StateDone:
		mCompleted.Inc()
	case StateFailed:
		mFailed.Inc()
	case StateCancelled:
		mCancelled.Inc()
	}
	o.opts.Logf("jobs: job=%s key=%.12s %s%s", j.ID, j.Key, st, errSuffix(err))
	o.logPublish(j, pubErr)
	// Failed campaigns should not resurrect on restart: their checkpoint
	// would fail the same way again.
	if st == StateFailed && o.st != nil {
		o.st.DeleteJob(j.Key)
	}
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return ": " + err.Error()
}

// finishInterrupted resolves a run cut short by cancellation: a
// user-cancelled job becomes cancelled (checkpoint deleted); an
// orchestrator shutdown returns the job to queued — its checkpoint stays
// in the store and the next process resumes it.
func (o *Orchestrator) finishInterrupted(j *job) {
	j.mu.Lock()
	user := j.userCancel
	j.mu.Unlock()
	if user {
		if o.st != nil {
			o.st.DeleteJob(j.Key)
		}
		o.mu.Lock()
		delete(o.byKey, j.Key)
		o.mu.Unlock()
		j.mu.Lock()
		pubErr := o.settleLocked(j, StateCancelled)
		j.mu.Unlock()
		mCancelled.Inc()
		o.opts.Logf("jobs: job=%s key=%.12s cancelled", j.ID, j.Key)
		o.logPublish(j, pubErr)
		return
	}
	// Shutdown: leave the checkpoint in place and the job formally
	// pending; this process will not run it again (workers are exiting).
	j.mu.Lock()
	j.State = StateQueued
	j.mu.Unlock()
	o.opts.Logf("jobs: job=%s key=%.12s interrupted by shutdown (checkpointed, resumable)", j.ID, j.Key)
	o.publish(j)
}

// persistCheckpoint writes j's checkpoint (total = merge of completed
// chunks; nil before the first chunk) to the store.
func (o *Orchestrator) persistCheckpoint(j *job, total *citadel.Result) {
	if o.st == nil {
		return
	}
	j.mu.Lock()
	cp := checkpoint{
		Version:     checkpointVersion,
		Key:         j.Key,
		Spec:        j.Spec,
		ChunksDone:  j.ChunksDone,
		TotalChunks: j.TotalChunks,
		Result:      total,
		UpdatedAt:   time.Now(),
	}
	j.mu.Unlock()
	data, err := json.Marshal(cp)
	if err != nil {
		o.opts.Logf("jobs: job=%s encoding checkpoint: %v", j.ID, err)
		return
	}
	if err := o.st.PutJob(j.Key, data); err != nil {
		o.opts.Logf("jobs: job=%s persisting checkpoint: %v", j.ID, err)
		return
	}
	mCheckpoints.Inc()
}

// runReliability executes a chunked, checkpointed Monte Carlo campaign.
// With a ChunkExecutor configured, chunks run on remote workers first;
// executor failure (workers all dead, coordinator shutting down) falls
// back to the local in-process loop from the last committed chunk, so a
// degraded cluster slows a campaign down but never fails it.
func (o *Orchestrator) runReliability(ctx context.Context, j *job) (any, bool, error) {
	r := j.Spec.Reliability
	if err := j.Spec.Validate(); err != nil {
		return nil, false, err
	}
	chunks := totalChunks(r)
	var total citadel.Result
	j.mu.Lock()
	start := j.ChunksDone
	j.TotalChunks = chunks
	j.TrialsTarget = r.Trials
	j.mu.Unlock()
	if start > 0 {
		cp := o.loadCheckpoint(j.Key)
		if cp == nil || cp.ChunksDone != start {
			// The checkpoint changed or vanished underneath us; restart
			// the campaign rather than produce a wrong merge.
			o.opts.Logf("jobs: job=%s checkpoint for %.12s unusable; restarting campaign", j.ID, j.Key)
			start = 0
			j.mu.Lock()
			j.ChunksDone = 0
			j.TrialsDone, j.Failures = 0, 0
			j.Resumed = false
			j.mu.Unlock()
		} else {
			total = *cp.Result
		}
	}
	// commit folds chunk i into the prefix merge and checkpoints it —
	// the one mutation path shared by distributed and local execution,
	// always invoked in increasing chunk order.
	commit := func(i int, res citadel.Result) error {
		if i != start {
			return fmt.Errorf("jobs: chunk %d committed out of order (expected %d)", i, start)
		}
		total = faultsim.Merge(total, res)
		total.Policy = res.Policy
		start = i + 1
		j.mu.Lock()
		j.ChunksDone = i + 1
		j.TrialsDone = total.Trials
		j.Failures = total.Failures
		j.mu.Unlock()
		o.persistCheckpoint(j, &total)
		o.publish(j)
		return nil
	}
	if exec := o.opts.ChunkExec; exec != nil && start < chunks {
		err := exec.ExecuteChunks(ctx, Campaign{
			Key: j.Key, RunID: j.ID, Spec: *r, Start: start, Total: chunks,
		}, commit)
		switch {
		case err == nil:
			// Every chunk ran on workers.
		case ctx.Err() != nil:
			return nil, true, nil
		default:
			// Completed chunks are committed and checkpointed; only the
			// tail re-runs here.
			mClusterFallback.Inc()
			o.opts.Logf("jobs: job=%s cluster execution failed at chunk %d/%d (%v); falling back to local execution",
				j.ID, start, chunks, err)
		}
	}
	for i := start; i < chunks; i++ {
		if ctx.Err() != nil {
			return nil, true, nil
		}
		baseTrials, baseFailures := total.Trials, total.Failures
		res, err := RunChunk(ctx, r, i, j.ID, func(p citadel.RunProgress) {
			j.mu.Lock()
			j.TrialsDone = baseTrials + p.TrialsDone
			j.Failures = baseFailures + p.Failures
			j.mu.Unlock()
			o.publish(j)
		})
		if err != nil {
			return nil, false, err
		}
		if res.Partial {
			// Mid-chunk interruption: discard the chunk (its statistics
			// depend on where the cancel landed) and resume it whole.
			return nil, true, nil
		}
		if err := commit(i, res); err != nil {
			return nil, false, err
		}
	}
	return total, false, nil
}

// runPerformance executes a base + configured timing/power pair.
func (o *Orchestrator) runPerformance(ctx context.Context, j *job) (any, bool, error) {
	res, err := RunPerformance(ctx, j.Spec.Performance, j.ID, nil)
	switch {
	case err != nil:
		return nil, false, err
	case res.Base.Partial || res.Run.Partial:
		return nil, true, nil
	}
	return res, false, nil
}

// runExperiment regenerates one paper table/figure.
func (o *Orchestrator) runExperiment(ctx context.Context, j *job) (any, bool, error) {
	e := j.Spec.Experiment
	rep, err := experiments.RunContext(ctx, e.ID, experiments.Options{
		Trials: e.Trials, Requests: e.Requests, Seed: e.Seed,
	})
	if err != nil {
		return nil, false, err
	}
	if rep.Partial {
		return nil, true, nil
	}
	return rep, false, nil
}
