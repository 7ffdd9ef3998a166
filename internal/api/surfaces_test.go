package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	citadel "repro"
	"repro/internal/jobs"
	"repro/internal/store"
)

// TestReliabilitySurfacesAgree: one jobs.ReliabilitySpec runs the same
// trials through citadel.Simulate of spec.Options(), a one-chunk local
// campaign and POST /api/v1/reliability, for a plain, an importance-
// sampled and a scenario-plugin spec. Each route answers 400, naming the
// field, to what it does not take.
func TestReliabilitySurfacesAgree(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	orch := jobs.New(jobs.Options{Store: st, Workers: 1, QueueDepth: 4, Logf: quietLogf})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		orch.Close(ctx)
	})
	srv := httptest.NewServer(New(Options{Jobs: orch, Logf: quietLogf}).Handler())
	t.Cleanup(srv.Close)

	// Every spec has fewer trials than the default chunk, so its campaign
	// is one chunk.
	for _, tc := range []struct {
		name string
		spec jobs.ReliabilitySpec
	}{
		{"plain", jobs.ReliabilitySpec{Scheme: "3DP", Trials: 3000, TSVFIT: 1430, Seed: 11}},
		{"rare event", jobs.ReliabilitySpec{Scheme: "3DP", Trials: 3000, TSVFIT: 143, Seed: 5, RareEvent: true, BiasFactor: 8}},
		{"scenario", jobs.ReliabilitySpec{
			Scheme: "1DP", Trials: 2000, Seed: 3, FaultModel: "rowhammer",
			ScenarioParams: map[string]float64{"breakthroughProb": 1e-7},
		}},
	} {
		direct, err := citadel.Simulate(context.Background(), tc.spec.Options(), citadel.Scheme(tc.spec.Scheme))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if direct.Failures == 0 {
			t.Errorf("%s: no failures; the comparison is vacuous", tc.name)
		}

		spec := tc.spec
		job, err := orch.Submit(jobs.Spec{Reliability: &spec})
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		fin, err := orch.Wait(ctx, job.ID)
		cancel()
		if err != nil || fin.State != jobs.StateDone || fin.TotalChunks != 1 {
			t.Fatalf("%s: campaign ended %s after %d chunks (%v %s)", tc.name, fin.State, fin.TotalChunks, err, fin.Error)
		}
		var campaign citadel.Result
		if err := json.Unmarshal(fin.Result, &campaign); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(campaign, direct) {
			t.Errorf("%s: campaign differs from Simulate:\n got %+v\nwant %+v", tc.name, campaign, direct)
		}

		var out ReliabilityResponse
		if resp := postJSON(t, srv.URL+"/api/v1/reliability", tc.spec, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST /api/v1/reliability status %d", tc.name, resp.StatusCode)
		}
		if out.Trials != direct.Trials || out.Failures != direct.Failures ||
			out.Probability != direct.Probability() || out.CI95 != direct.CI95() {
			t.Errorf("%s: route answered %d trials, %d failures, %g ± %g; Simulate %d, %d, %g ± %g", tc.name,
				out.Trials, out.Failures, out.Probability, out.CI95,
				direct.Trials, direct.Failures, direct.Probability(), direct.CI95())
		}
	}

	for _, tc := range []struct {
		route string
		body  any
		field string
	}{
		{"/api/v1/reliability", jobs.ReliabilitySpec{Scheme: "1DP", Trials: 1000, CheckpointTrials: 500}, "checkpointTrials"},
		{"/api/v1/jobs", jobs.Spec{Reliability: &jobs.ReliabilitySpec{Scheme: "1DP", Trials: 1000, TargetFailures: 5}}, "targetFailures"},
		{"/api/v1/jobs", jobs.Spec{Reliability: &jobs.ReliabilitySpec{Scheme: "1DP", Trials: 1000, Forensics: true}}, "forensics"},
	} {
		var e apiError
		resp := postJSON(t, srv.URL+tc.route, tc.body, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.field) {
			t.Errorf("POST %s with %s: status %d %q, want 400 naming it", tc.route, tc.field, resp.StatusCode, e.Error)
		}
	}
}
