package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// stubCoordinator serves the worker side of the protocol from canned
// answers, at once: the first lease request gets grant (when set) and
// every later one 204; complete requests get completeStatus in turn, then
// 200 accepted. It records what the worker sent.
type stubCoordinator struct {
	*httptest.Server
	// leases receives the arrival time of every lease request; its buffer
	// outlasts what any test reads, so no request waits on the test.
	leases chan time.Time

	mu        sync.Mutex
	asked     int
	completes []cluster.CompleteRequest
}

func newStub(t *testing.T, grant *cluster.LeaseGrant, completeStatus ...int) *stubCoordinator {
	t.Helper()
	s := &stubCoordinator{leases: make(chan time.Time, 1024)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+cluster.LeasePath, func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		first := s.asked == 0
		s.asked++
		s.mu.Unlock()
		s.leases <- time.Now()
		if first && grant != nil {
			json.NewEncoder(w).Encode(grant)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST "+cluster.CompletePath, func(w http.ResponseWriter, r *http.Request) {
		var req cluster.CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub: decoding complete request: %v", err)
		}
		s.mu.Lock()
		s.completes = append(s.completes, req)
		n := len(s.completes)
		s.mu.Unlock()
		if n <= len(completeStatus) {
			w.WriteHeader(completeStatus[n-1])
			return
		}
		json.NewEncoder(w).Encode(cluster.CompleteResponse{Status: cluster.CompleteAccepted})
	})
	s.Server = httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

// awaitLeases returns the arrival times of the next n lease requests.
func (s *stubCoordinator) awaitLeases(t *testing.T, n int) []time.Time {
	t.Helper()
	at := make([]time.Time, 0, n)
	for len(at) < n {
		select {
		case ts := <-s.leases:
			at = append(at, ts)
		case <-time.After(10 * time.Second):
			t.Fatalf("stub saw %d of %d lease requests", len(at), n)
		}
	}
	return at
}

func (s *stubCoordinator) completed() []cluster.CompleteRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cluster.CompleteRequest(nil), s.completes...)
}

// stubGrant leases chunk 0 of a small campaign under its true key.
func stubGrant(t *testing.T) cluster.LeaseGrant {
	t.Helper()
	spec := testSpec(5, 200, 100).Normalize()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return cluster.LeaseGrant{
		LeaseID:     "l-1",
		CampaignKey: key,
		RunID:       "r1",
		Chunk:       0,
		Trials:      spec.Reliability.ChunkTrials(0),
		Spec:        *spec.Reliability,
		TTLMillis:   time.Minute.Milliseconds(), // no heartbeat falls due
	}
}

// TestWorkerPacesImmediateEmptyLeases: against a coordinator that answers
// 204 at once instead of holding the request, the worker keeps its poll
// pacing rather than asking again at once.
func TestWorkerPacesImmediateEmptyLeases(t *testing.T) {
	const poll = 100 * time.Millisecond
	stub := newStub(t, nil)
	stop := runWorker(t, stub.URL, "pacer", poll)
	at := stub.awaitLeases(t, 6)
	stop()
	// idleDelay jitters poll to at least poll/2; allow 10ms for the
	// request itself, which the gap between arrivals does not include.
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < poll/2-10*time.Millisecond {
			t.Errorf("empty lease answers %d and %d came %s apart, want at least %s with PollInterval %s",
				i-1, i, gap, poll/2, poll)
		}
	}
}

// TestWorkerRefusesGrantUnderAnotherKey: a grant whose campaign key is
// not the key this worker derives from the granted spec (a coordinator
// built with another sampling scheme) is reported failed, naming both
// keys, and never simulated or delivered.
func TestWorkerRefusesGrantUnderAnotherKey(t *testing.T) {
	grant := stubGrant(t)
	ours := grant.CampaignKey
	grant.CampaignKey = strings.Repeat("0", len(ours))
	stub := newStub(t, &grant)
	trials := counter("citadel_faultsim_trials_total")
	stop := runWorker(t, stub.URL, "mixed", 10*time.Millisecond)
	stub.awaitLeases(t, 2) // the second request follows the refused grant
	stop()

	got := stub.completed()
	if len(got) != 1 || !got[0].Failed || got[0].Envelope != nil || got[0].LeaseID != grant.LeaseID {
		t.Fatalf("worker sent %+v, want one failure report for lease %s and no result", got, grant.LeaseID)
	}
	if r := got[0].Reason; !strings.Contains(r, grant.CampaignKey) || !strings.Contains(r, ours) {
		t.Errorf("failure reason %q does not name both keys (%s, %s)", r, grant.CampaignKey, ours)
	}
	if d := counter("citadel_faultsim_trials_total") - trials; d != 0 {
		t.Errorf("worker simulated %d trials of a refused grant", d)
	}
}

// TestWorkerDeliveryRetries: a delivery answered 5xx or 429 is sent
// again; any other error status is final.
func TestWorkerDeliveryRetries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		attempts int
	}{
		{"503", http.StatusServiceUnavailable, 2},
		{"429", http.StatusTooManyRequests, 2},
		{"400", http.StatusBadRequest, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grant := stubGrant(t)
			stub := newStub(t, &grant, tc.status)
			stop := runWorker(t, stub.URL, "deliver", 10*time.Millisecond)
			stub.awaitLeases(t, 2) // the second request follows the delivery
			stop()

			got := stub.completed()
			if len(got) != tc.attempts {
				t.Fatalf("worker sent %d deliveries after HTTP %d, want %d", len(got), tc.status, tc.attempts)
			}
			for i, req := range got {
				env := req.Envelope
				if req.Failed || env == nil || env.CampaignKey != grant.CampaignKey || env.Chunk != 0 || env.Trials != grant.Trials {
					t.Errorf("delivery %d = %+v, want chunk 0 of %.12s with %d trials", i, req, grant.CampaignKey, grant.Trials)
				}
			}
		})
	}
}
