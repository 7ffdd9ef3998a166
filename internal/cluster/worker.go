package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	mrand "math/rand"
	"net/http"
	"time"

	"repro/internal/faultsim"
	"repro/internal/jobs"
)

// WorkerOptions configures a pulling worker.
type WorkerOptions struct {
	// BaseURL is the coordinator, e.g. "http://coordinator:8080".
	BaseURL string
	// ID names this worker in the coordinator's ledger (default a
	// random "w-xxxxxxxx"). Restarted processes should use fresh IDs so
	// the quarantine record of a crashed incarnation does not follow
	// them.
	ID string
	// Client issues the HTTP requests (default: 30s timeout). Tests
	// inject chaos here via a custom Transport.
	Client *http.Client
	// PollInterval spaces lease requests that come back empty: the next
	// one starts a PollInterval, jittered to ±50% so a fleet of idle
	// workers does not poll in lockstep, after the last one did (default
	// 500ms). The coordinator holds an empty request open until work
	// appears, usually for longer than that, so the worker then asks
	// again at once; against a coordinator that answers at once, this is
	// the idle poll period.
	PollInterval time.Duration
	// Logf sinks worker logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		o.ID = fmt.Sprintf("w-%08x", binary.LittleEndian.Uint32(b[:]))
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Worker is a stateless campaign-chunk executor: it pulls a lease from
// the coordinator, heartbeats it while the chunk simulates locally, and
// delivers the result envelope. Everything needed to run a chunk arrives
// in the lease grant, so a worker owns no durable state — killing one
// loses at most the chunk it was computing, which the coordinator
// reassigns when the lease expires.
//
// A Worker runs one chunk at a time; run several Workers (distinct IDs)
// for parallelism. Run is not safe to call concurrently on one Worker.
type Worker struct {
	opts     WorkerOptions
	rng      *mrand.Rand // poll jitter; Run's goroutine only
	leaseErr int         // consecutive lease-request transport errors
}

// NewWorker builds a Worker.
func NewWorker(opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	seed := int64(0)
	for _, c := range opts.ID {
		seed = seed*31 + int64(c)
	}
	return &Worker{opts: opts, rng: mrand.New(mrand.NewSource(seed ^ time.Now().UnixNano()))}
}

// ID returns the worker's coordinator-facing identity.
func (w *Worker) ID() string { return w.opts.ID }

// Run pulls and executes chunks until ctx is cancelled, then returns
// ctx.Err(). Cancellation mid-chunk abandons the chunk without any
// farewell message — exactly what a SIGKILL looks like to the
// coordinator — and the lease machinery requeues it.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		asked := time.Now()
		grant, ok, err := w.requestLease(ctx)
		switch {
		case err != nil:
			if ctx.Err() == nil {
				w.leaseErr++
				w.opts.Logf("cluster: worker=%s lease request: %v", w.opts.ID, err)
			}
			if !sleepCtx(ctx, w.errDelay()) {
				return ctx.Err()
			}
		case !ok:
			w.leaseErr = 0
			if !sleepCtx(ctx, w.idleDelay()-time.Since(asked)) {
				return ctx.Err()
			}
		default:
			w.leaseErr = 0
			w.runLease(ctx, grant)
		}
	}
}

// idleDelay jitters the poll interval across [0.5p, 1.5p].
func (w *Worker) idleDelay() time.Duration {
	p := w.opts.PollInterval
	return p/2 + time.Duration(w.rng.Int63n(int64(p)+1))
}

// errDelay backs off lease-request transport errors exponentially up to
// ~8× the poll interval, jittered.
func (w *Worker) errDelay() time.Duration {
	p := w.opts.PollInterval
	for i := 1; i < w.leaseErr && p < 8*w.opts.PollInterval; i++ {
		p *= 2
	}
	return p/2 + time.Duration(w.rng.Int63n(int64(p)+1))
}

// sleepCtx sleeps d or until ctx cancels; false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runLease executes one granted chunk: heartbeat in the background,
// simulate, deliver. A lease revocation (heartbeat answered "gone")
// cancels the simulation mid-chunk — the partial result is discarded, as
// partial chunk statistics must never enter a merge.
//
// A grant whose campaign key differs from the key this worker derives
// from the granted spec was made under another sampling scheme (a
// coordinator of another version): the worker fails it without running
// it, so a mixed-version fleet never merges chunks drawn two ways.
func (w *Worker) runLease(ctx context.Context, grant LeaseGrant) {
	if key, err := (jobs.Spec{Reliability: &grant.Spec}).Key(); err != nil || key != grant.CampaignKey {
		reason := fmt.Sprintf("campaign key %s does not match this worker's key %s for the granted spec", grant.CampaignKey, key)
		if err != nil {
			reason = fmt.Sprintf("deriving the key of campaign %s: %v", grant.CampaignKey, err)
		}
		w.opts.Logf("cluster: worker=%s chunk=%d refused: %s", w.opts.ID, grant.Chunk, reason)
		w.postFail(ctx, grant, reason)
		return
	}
	chunkCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbEvery := time.Duration(grant.TTLMillis) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	hbDone := make(chan struct{})
	go w.heartbeatLoop(chunkCtx, cancel, grant, hbEvery, hbDone)

	runID := fmt.Sprintf("%s/c%d", grant.RunID, grant.Chunk)
	res, err := jobs.RunChunk(chunkCtx, &grant.Spec, grant.Chunk, runID, nil)
	cancel()
	<-hbDone
	switch {
	case err != nil:
		// The spec itself is unrunnable here (e.g. unknown scheme):
		// report failure so the chunk requeues now, not at lease expiry.
		w.opts.Logf("cluster: worker=%s chunk=%d unrunnable: %v", w.opts.ID, grant.Chunk, err)
		w.postFail(ctx, grant, err.Error())
	case res.Partial:
		// Shutdown or lease revocation mid-chunk: abandon silently; the
		// coordinator's lease (or its new holder) covers the chunk.
		w.opts.Logf("cluster: worker=%s campaign=%.12s chunk=%d abandoned (%d/%d trials)",
			w.opts.ID, grant.CampaignKey, grant.Chunk, res.Trials, grant.Trials)
	default:
		env := faultsim.ChunkEnvelope{
			CampaignKey: grant.CampaignKey,
			Chunk:       grant.Chunk,
			Trials:      grant.Trials,
			Result:      res,
		}
		w.deliver(ctx, grant, env)
	}
}

// heartbeatLoop extends the lease at the given cadence until the chunk
// context ends. Transport errors are tolerated (the lease survives
// skipped beats up to its TTL); an explicit "gone" cancels the chunk.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, grant LeaseGrant, every time.Duration, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp HeartbeatResponse
			status, err := w.postJSON(ctx, HeartbeatPath,
				HeartbeatRequest{WorkerID: w.opts.ID, LeaseID: grant.LeaseID}, &resp)
			switch {
			case err != nil:
				if ctx.Err() == nil {
					w.opts.Logf("cluster: worker=%s heartbeat lease=%s: %v", w.opts.ID, grant.LeaseID, err)
				}
			case status != http.StatusOK || !resp.Extended:
				w.opts.Logf("cluster: worker=%s lease=%s revoked; abandoning chunk %d",
					w.opts.ID, grant.LeaseID, grant.Chunk)
				cancel()
				return
			}
		}
	}
}

// deliver posts the completed chunk, retrying transport failures, server
// errors (5xx) and 429s a few times. Delivery uses the worker's run
// context: a killed worker drops its result (the chunk requeues at lease
// expiry), which keeps the failure model honest.
func (w *Worker) deliver(ctx context.Context, grant LeaseGrant, env faultsim.ChunkEnvelope) {
	req := CompleteRequest{WorkerID: w.opts.ID, LeaseID: grant.LeaseID, Envelope: &env}
	for attempt := 0; attempt < 3; attempt++ {
		var resp CompleteResponse
		status, err := w.postJSON(ctx, CompletePath, req, &resp)
		switch {
		case err == nil && status == http.StatusOK:
			if resp.Status != CompleteAccepted {
				w.opts.Logf("cluster: worker=%s campaign=%.12s chunk=%d delivered as %s",
					w.opts.ID, grant.CampaignKey, grant.Chunk, resp.Status)
			}
			return
		case err == nil && (status >= 500 || status == http.StatusTooManyRequests):
			w.opts.Logf("cluster: worker=%s chunk=%d delivery got HTTP %d", w.opts.ID, grant.Chunk, status)
		case err == nil:
			// Any other status: the coordinator rejected the envelope;
			// retrying the same bytes cannot help.
			w.opts.Logf("cluster: worker=%s chunk=%d delivery rejected (HTTP %d)", w.opts.ID, grant.Chunk, status)
			return
		case ctx.Err() != nil:
			return
		}
		if !sleepCtx(ctx, time.Duration(attempt+1)*200*time.Millisecond) {
			return
		}
	}
	w.opts.Logf("cluster: worker=%s chunk=%d delivery failed; lease expiry will requeue it", w.opts.ID, grant.Chunk)
}

// postFail reports an unrunnable chunk.
func (w *Worker) postFail(ctx context.Context, grant LeaseGrant, reason string) {
	_, err := w.postJSON(ctx, CompletePath,
		CompleteRequest{WorkerID: w.opts.ID, LeaseID: grant.LeaseID, Failed: true, Reason: reason}, nil)
	if err != nil && ctx.Err() == nil {
		w.opts.Logf("cluster: worker=%s reporting failed chunk %d: %v", w.opts.ID, grant.Chunk, err)
	}
}

// requestLease asks for work. ok is false when the coordinator has none
// (HTTP 204).
func (w *Worker) requestLease(ctx context.Context) (LeaseGrant, bool, error) {
	var grant LeaseGrant
	status, err := w.postJSON(ctx, LeasePath, LeaseRequest{WorkerID: w.opts.ID}, &grant)
	switch {
	case err != nil:
		return LeaseGrant{}, false, err
	case status == http.StatusNoContent:
		return LeaseGrant{}, false, nil
	case status != http.StatusOK:
		return LeaseGrant{}, false, fmt.Errorf("lease request: HTTP %d", status)
	}
	return grant, true, nil
}

// postJSON posts body to path and decodes a 2xx response into out (when
// non-nil and the response has a body). Returns the HTTP status.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}
