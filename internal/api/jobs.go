package api

import (
	"errors"
	"math/rand"
	"net/http"
	"strconv"

	"repro/internal/jobs"
	"repro/internal/store"
)

// Job routes: asynchronous campaign submission over the orchestrator.
//
//	POST   /api/v1/jobs       submit (202 + job ID; 429 when the queue is full)
//	GET    /api/v1/jobs       list jobs known to this process
//	GET    /api/v1/jobs/{id}  status / progress / result
//	DELETE /api/v1/jobs/{id}  cancel
//
// Unlike the synchronous simulation routes, submission does NOT pass
// through the simulation-slot semaphore: accepting a job is cheap (the
// heavy work runs later on the orchestrator's own bounded worker pool),
// so blocking a handler goroutine on sim capacity would only add a
// second, redundant queue in front of the real one. Backpressure comes
// from the orchestrator's bounded queue instead: a full queue answers
// 429 with a Retry-After hint derived from the queue depth.

// JobRequest is the POST /api/v1/jobs body, the wire form of a campaign.
// Kind may be omitted when exactly one sub-spec is present.
//
// Deprecated: use jobs.Spec. The alias remains only because the
// repository benchmark (benchmark/service.go) constructs it.
type JobRequest = jobs.Spec

// JobResponse mirrors jobs.Job for the wire.
type JobResponse struct {
	*jobs.Job
	// QueueDepth reports the orchestrator queue at response time, so
	// pollers can see the backlog their job sits behind.
	QueueDepth int `json:"queueDepth,omitempty"`
}

// retryAfterSeconds derives the 429 Retry-After hint from the queue
// depth: roughly two seconds of drain per queued campaign, jittered to
// ±25% and clamped to [1s, 120s]. It is a hint, not a promise —
// campaigns vary wildly in size — but it scales the client's backoff
// with the actual backlog instead of a constant, and the jitter spreads
// retries from clients that were all shed by the same full queue so
// they do not stampede back in the same second.
func retryAfterSeconds(depth int) int {
	retry := 2 * depth
	if q := retry / 4; q > 0 {
		retry += rand.Intn(2*q+1) - q
	}
	if retry < 1 {
		retry = 1
	}
	if retry > 120 {
		retry = 120
	}
	return retry
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	// The caps are this server's policy; Submit runs jobs.Spec.Validate,
	// the one check of the spec itself.
	if (spec.Reliability != nil && spec.Reliability.Trials > maxTrialsPerCall) ||
		(spec.Experiment != nil && spec.Experiment.Trials > maxTrialsPerCall) {
		s.writeError(w, http.StatusBadRequest, "trials capped at %d per job", maxTrialsPerCall)
		return
	}
	if spec.Performance != nil && spec.Performance.Requests > maxRequestsPerCall {
		s.writeError(w, http.StatusBadRequest, "requests capped at %d per job", maxRequestsPerCall)
		return
	}
	job, err := s.opts.Jobs.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		depth := s.opts.Jobs.QueueDepth()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(depth)))
		s.writeError(w, http.StatusTooManyRequests,
			"job queue full (%d campaigns waiting)", depth)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "orchestrator is shutting down")
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, JobResponse{Job: job, QueueDepth: s.opts.Jobs.QueueDepth()})
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	list := s.opts.Jobs.List()
	out := make([]JobResponse, 0, len(list))
	for _, j := range list {
		// Drop result payloads from the listing; they can be large and
		// are one GET /jobs/{id} away.
		j.Result = nil
		out = append(out, JobResponse{Job: j})
	}
	// The listing mutates as jobs progress — never let a cache serve it.
	w.Header().Set("Cache-Control", "no-store")
	s.writeJSON(w, http.StatusOK, map[string]any{
		"jobs":       out,
		"queueDepth": s.opts.Jobs.QueueDepth(),
		"queueCap":   s.opts.Jobs.QueueCap(),
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.opts.Jobs.Status(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if job.State.Terminal() {
		// A finished job never changes again and its result bytes are
		// identified by the spec's content key, so state+key is a strong
		// validator: pollers revalidate with If-None-Match and the 304
		// path skips marshalling the (potentially large) result payload.
		etag := store.ETag(string(job.State) + "-" + job.Key)
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "public, max-age=3600")
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			mNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else {
		w.Header().Set("Cache-Control", "no-store")
	}
	s.writeJSON(w, http.StatusOK, JobResponse{Job: job})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.opts.Jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "no such job %q", id)
	case errors.Is(err, jobs.ErrFinished):
		s.writeError(w, http.StatusConflict, "job %s already finished", id)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		job, _ := s.opts.Jobs.Status(id)
		s.writeJSON(w, http.StatusOK, JobResponse{Job: job})
	}
}
