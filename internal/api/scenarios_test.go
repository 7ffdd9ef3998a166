package api

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/jobs"
	"repro/internal/scenario"
)

// GET /api/v1/scenarios serves the registry catalog with the same
// conditional-GET contract as /api/v1/benchmarks: a strong content-hash
// ETag, 304 on If-None-Match (strong or weak form), and gzip when the
// client accepts it.
func TestScenariosCatalogEndpoint(t *testing.T) {
	srv := testServer(t)
	resp := condGet(t, srv.URL+"/api/v1/scenarios", "")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("status = %d, etag = %q", resp.StatusCode, etag)
	}
	var cat scenario.Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	want := scenario.BuildCatalog()
	if len(cat.Schemes) != len(want.Schemes) || len(cat.FaultModels) != len(want.FaultModels) {
		t.Fatalf("served catalog has %d schemes / %d models, registry has %d / %d",
			len(cat.Schemes), len(cat.FaultModels), len(want.Schemes), len(want.FaultModels))
	}
	names := map[string]bool{}
	for _, s := range cat.Schemes {
		names[s.Name] = true
	}
	for _, mustHave := range []string{"Citadel", "two-tier-replication", "cerberus-cross-layer"} {
		if !names[mustHave] {
			t.Errorf("catalog missing scheme %q", mustHave)
		}
	}

	resp2 := condGet(t, srv.URL+"/api/v1/scenarios", etag)
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d, want 304", resp2.StatusCode)
	}
	resp3 := condGet(t, srv.URL+"/api/v1/scenarios", "W/"+etag)
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("weak conditional status = %d, want 304", resp3.StatusCode)
	}
}

func TestScenariosCatalogGzip(t *testing.T) {
	srv := testServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/scenarios", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	var cat scenario.Catalog
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatalf("decompressed catalog unparsable: %v", err)
	}
}

// The reliability endpoint accepts scenario selections and rejects
// unknown ones with a client error, not a failed job.
func TestReliabilityScenarioSelection(t *testing.T) {
	srv := testServer(t)
	post := func(body jobs.ReliabilitySpec) (*http.Response, ReliabilityResponse) {
		var out ReliabilityResponse
		resp := postJSON(t, srv.URL+"/api/v1/reliability", body, &out)
		return resp, out
	}

	resp, out := post(jobs.ReliabilitySpec{
		Scheme: "Citadel", Trials: 200, Seed: 5,
		FaultModel:     "rowhammer",
		ScenarioParams: map[string]float64{"breakthroughProb": 1e-7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rowhammer request status = %d", resp.StatusCode)
	}
	if out.ScenarioStats["hammerTrials"] != 200 {
		t.Fatalf("hammerTrials = %g, want 200 (stats: %v)", out.ScenarioStats["hammerTrials"], out.ScenarioStats)
	}

	resp, _ = post(jobs.ReliabilitySpec{Scheme: "two-tier-replication", Trials: 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("two-tier request status = %d", resp.StatusCode)
	}

	resp, _ = post(jobs.ReliabilitySpec{Scheme: "Citadel", Trials: 10, FaultModel: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown fault model status = %d, want 400", resp.StatusCode)
	}
	resp, _ = post(jobs.ReliabilitySpec{Scheme: "Citadel", Trials: 10,
		ScenarioParams: map[string]float64{"bogus": 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown param status = %d, want 400", resp.StatusCode)
	}
}
