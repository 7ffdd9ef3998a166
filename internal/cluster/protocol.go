package cluster

import (
	"repro/internal/faultsim"
	"repro/internal/jobs"
)

// Wire protocol between the coordinator (mounted by internal/api) and
// citadel-worker processes. Workers pull: they ask for a lease, heartbeat
// it while computing, and deliver the chunk result. The coordinator never
// dials a worker, so workers need no listening port, survive NAT, and a
// dead worker is simply one whose leases expire.

// Route paths shared by the HTTP handlers and the worker client, so the
// two sides cannot drift.
const (
	LeasePath     = "/api/v1/cluster/lease"
	HeartbeatPath = "/api/v1/cluster/heartbeat"
	CompletePath  = "/api/v1/cluster/complete"
	WorkersPath   = "/api/v1/cluster/workers"
)

// LeaseRequest asks the coordinator for one chunk of work.
type LeaseRequest struct {
	WorkerID string `json:"workerId"`
}

// LeaseGrant hands a worker one chunk under a lease. The worker must
// heartbeat before TTLMillis elapses (clients send at TTL/3) or the
// coordinator reassigns the chunk to another worker. The grant carries
// the full normalized spec, so workers are stateless: everything needed
// to run chunk i deterministically is in this message.
type LeaseGrant struct {
	LeaseID     string               `json:"leaseId"`
	CampaignKey string               `json:"campaignKey"`
	RunID       string               `json:"runId"`
	Chunk       int                  `json:"chunk"`
	Trials      int                  `json:"trials"`
	Spec        jobs.ReliabilitySpec `json:"spec"`
	TTLMillis   int64                `json:"ttlMillis"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	WorkerID string `json:"workerId"`
	LeaseID  string `json:"leaseId"`
}

// HeartbeatResponse reports whether the lease is still held. Extended
// false means the lease was revoked (expired and reassigned, campaign
// finished, or cancelled): the worker must abandon the chunk immediately
// — its result would be a duplicate at best.
type HeartbeatResponse struct {
	Extended  bool  `json:"extended"`
	TTLMillis int64 `json:"ttlMillis,omitempty"`
}

// CompleteRequest delivers a finished chunk (Envelope set) or reports
// that the worker could not run it (Failed set), which requeues the
// chunk immediately instead of waiting out the lease.
type CompleteRequest struct {
	WorkerID string                  `json:"workerId"`
	LeaseID  string                  `json:"leaseId"`
	Failed   bool                    `json:"failed,omitempty"`
	Reason   string                  `json:"reason,omitempty"`
	Envelope *faultsim.ChunkEnvelope `json:"envelope,omitempty"`
}

// CompleteStatus classifies what the coordinator did with a delivery.
type CompleteStatus string

const (
	// CompleteAccepted: the chunk entered the campaign merge.
	CompleteAccepted CompleteStatus = "accepted"
	// CompleteDuplicate: the chunk was already merged (redelivery or a
	// reassigned chunk finished twice); the result was discarded. Chunks
	// are deterministic, so nothing is lost.
	CompleteDuplicate CompleteStatus = "duplicate"
	// CompleteStale: the campaign is no longer running here (finished,
	// cancelled, or fell back to local execution); discarded.
	CompleteStale CompleteStatus = "stale"
)

// CompleteResponse acknowledges a delivery.
type CompleteResponse struct {
	Status CompleteStatus `json:"status"`
}

// WorkerInfo is one row of the GET workers listing.
type WorkerInfo struct {
	ID                string `json:"id"`
	Live              bool   `json:"live"`
	LastSeenMillisAgo int64  `json:"lastSeenMillisAgo"`
	ActiveLeases      int    `json:"activeLeases"`
	ChunksDone        int64  `json:"chunksDone"`
	ConsecutiveFails  int    `json:"consecutiveFails,omitempty"`
	Quarantined       bool   `json:"quarantined,omitempty"`
}

// WorkersResponse is the GET workers listing.
type WorkersResponse struct {
	Workers     []WorkerInfo `json:"workers"`
	LiveWorkers int          `json:"liveWorkers"`
}
