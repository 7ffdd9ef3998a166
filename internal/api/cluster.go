package api

import (
	"net/http"

	"repro/internal/cluster"
)

// Cluster routes: the coordinator side of the distributed campaign
// protocol (see internal/cluster). Mounted only with Options.Cluster.
//
//	POST /api/v1/cluster/lease      pull one chunk lease (long poll; 204 when none)
//	POST /api/v1/cluster/heartbeat  extend a lease
//	POST /api/v1/cluster/complete   deliver a chunk result or failure
//	GET  /api/v1/cluster/workers    ops view of the worker fleet
//
// These routes bypass the simulation-slot semaphore: they are cheap
// bookkeeping calls, and stalling a heartbeat behind a saturated sim
// pool would expire healthy leases.

func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		s.writeError(w, http.StatusBadRequest, "workerId is required")
		return
	}
	grant, ok := s.opts.Cluster.Lease(r.Context(), req.WorkerID)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" || req.LeaseID == "" {
		s.writeError(w, http.StatusBadRequest, "workerId and leaseId are required")
		return
	}
	extended := s.opts.Cluster.Heartbeat(req.WorkerID, req.LeaseID)
	resp := cluster.HeartbeatResponse{Extended: extended}
	if extended {
		resp.TTLMillis = s.opts.Cluster.LeaseTTL().Milliseconds()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	var req cluster.CompleteRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" || req.LeaseID == "" {
		s.writeError(w, http.StatusBadRequest, "workerId and leaseId are required")
		return
	}
	if req.Failed {
		s.opts.Cluster.Fail(req.WorkerID, req.LeaseID, req.Reason)
		s.writeJSON(w, http.StatusOK, cluster.CompleteResponse{Status: cluster.CompleteAccepted})
		return
	}
	if req.Envelope == nil {
		s.writeError(w, http.StatusBadRequest, "envelope is required unless failed is set")
		return
	}
	status, err := s.opts.Cluster.Complete(req.WorkerID, req.LeaseID, *req.Envelope)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, cluster.CompleteResponse{Status: status})
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.opts.Cluster.Workers())
}
