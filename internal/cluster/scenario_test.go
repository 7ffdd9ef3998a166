package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultsim"
	"repro/internal/jobs"
)

// scenarioSpec composes both new plugin kinds in one campaign: the
// two-tier-replication scheme under the rowhammer arrival process.
func scenarioSpec(seed int64, trials, chunk int) jobs.Spec {
	return jobs.Spec{Reliability: &jobs.ReliabilitySpec{
		Scheme:           "two-tier-replication",
		Trials:           trials,
		CheckpointTrials: chunk,
		Seed:             seed,
		TSVFIT:           1430,
		FaultModel:       "rowhammer",
		ScenarioParams:   map[string]float64{"breakthroughProb": 1e-7},
	}}
}

// TestDistributedScenarioMatchesLocal extends the determinism contract
// to registry-built scenarios: workers resolve the scheme and fault
// model from their own registry by name, and the distributed merge —
// including the folded ScenarioStats — must be bit-identical to the
// in-process run on another host shape.
func TestDistributedScenarioMatchesLocal(t *testing.T) {
	spec := scenarioSpec(11, 2000, 250)
	want := runLocal(t, spec)
	setProcs(t, 4)

	h := newHarness(t, cluster.Options{
		LeaseTTL:      2 * time.Second,
		Tick:          50 * time.Millisecond,
		NoWorkerGrace: 10 * time.Second,
	})
	for i := 0; i < 3; i++ {
		h.startWorker(t, fmt.Sprintf("sw%d", i))
	}
	got := runCampaign(t, h.orch, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed scenario result differs from local:\n got %s\nwant %s", got, want)
	}

	var res faultsim.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.ScenarioStats["hammerTrials"] != 2000 {
		t.Fatalf("hammerTrials = %g, want 2000 (stats: %v)", res.ScenarioStats["hammerTrials"], res.ScenarioStats)
	}
	if res.ScenarioStats["tierFetchEvents"] <= 0 {
		t.Fatalf("tierFetchEvents missing from folded stats: %v", res.ScenarioStats)
	}
}

// Cerberus under the default Poisson model distributes bit-identically
// too — the third new scenario through the cluster executor.
func TestDistributedCerberusMatchesLocal(t *testing.T) {
	spec := scenarioSpec(5, 1000, 250)
	spec.Reliability.Scheme = "cerberus-cross-layer"
	spec.Reliability.FaultModel = ""
	spec.Reliability.ScenarioParams = nil
	want := runLocal(t, spec)

	h := newHarness(t, cluster.Options{
		LeaseTTL:      2 * time.Second,
		Tick:          50 * time.Millisecond,
		NoWorkerGrace: 10 * time.Second,
	})
	h.startWorker(t, "cw0")
	h.startWorker(t, "cw1")
	got := runCampaign(t, h.orch, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed cerberus result differs from local:\n got %s\nwant %s", got, want)
	}
}
