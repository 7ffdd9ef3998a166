package cluster

import "repro/internal/obs"

// Coordinator metrics, exposed by cmd/citadel-server at GET /metrics.
// The reassignment/expiry/quarantine counters are the cluster's failure
// ledger: a healthy fleet keeps them flat while chunks_completed climbs.
var (
	mLeasesGranted = obs.Default().Counter("citadel_cluster_leases_granted_total",
		"Chunk leases granted to workers.")
	mHeartbeats = obs.Default().Counter("citadel_cluster_heartbeats_total",
		"Lease heartbeats accepted (deadline extended).")
	mLeaseExpiries = obs.Default().Counter("citadel_cluster_lease_expiries_total",
		"Leases that expired without a heartbeat (worker presumed dead).")
	mReassignments = obs.Default().Counter("citadel_cluster_reassignments_total",
		"Chunks requeued after a lost or failed lease.")
	mChunksCompleted = obs.Default().Counter("citadel_cluster_chunks_completed_total",
		"Chunk results accepted into campaign merges.")
	mDuplicateResults = obs.Default().Counter("citadel_cluster_duplicate_results_total",
		"Chunk results discarded because the chunk was already merged.")
	mStaleResults = obs.Default().Counter("citadel_cluster_stale_results_total",
		"Chunk results discarded because their campaign was no longer active.")
	mQuarantines = obs.Default().Counter("citadel_cluster_quarantines_total",
		"Workers quarantined after consecutive chunk failures.")
	mCampaignsFellBack = obs.Default().Counter("citadel_cluster_no_worker_aborts_total",
		"Campaigns handed back to local execution because no live worker appeared in time.")
	mLiveWorkers = obs.Default().Gauge("citadel_cluster_live_workers",
		"Workers seen within the liveness window and not quarantined.")
	mActiveCampaigns = obs.Default().Gauge("citadel_cluster_active_campaigns",
		"Campaigns currently being distributed to workers.")
	mParkedLeases = obs.Default().Gauge("citadel_cluster_parked_lease_requests",
		"Lease requests held open waiting for work: idle worker capacity.")
)
