package citadel

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRecord is one entry of testdata/simulate_golden.json: what a
// public entry point returned for one spec.
type goldenRecord struct {
	Spec   string
	Result any
}

// TestEnginesDeterministicAcrossHostShapes: a seeded result is a pure
// function of its spec, whatever the host's CPU count or the worker
// count. One spec per engine runs at GOMAXPROCS 1, 2 and 8 × Workers 1, 3
// and 16, and all nine Results must be DeepEqual — importance weights,
// ScenarioStats and exemplars included. The common result must also
// match testdata/simulate_golden.json byte for byte (regenerate with
// `go test . -run DeterministicAcrossHostShapes -update`), so what the
// public entry points return is pinned, not only that hosts agree.
func TestEnginesDeterministicAcrossHostShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("81 Monte Carlo runs; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	hot := scaledTable1(10).WithTSV(1430)
	ctx := context.Background()
	specs := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"plain Citadel with forensics", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Rates: scaledTable1(30).WithTSV(1430), Trials: 3000, Seed: 3, Workers: w, Forensics: true,
			}, SchemeCitadel)
		}},
		{"importance sampling at bias 16", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Rates: hot, Trials: 2000, Seed: 5, Workers: w, RareEvent: true, BiasFactor: 16,
			}, SchemeCitadel)
		}},
		{"census", func(w int) (any, error) {
			return RunFaultCensus(ctx, ReliabilityOptions{Rates: hot, Trials: 2000, Seed: 7, Workers: w, TSVSwap: true})
		}},
		{"adaptive in 500-trial batches", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Rates: scaledTable1(30).WithTSV(1430), Trials: 500, Seed: 11, Workers: w, Forensics: true,
				TargetFailures: 150, MaxTrials: 5000,
			}, SchemeCitadel)
		}},
		{"adaptive importance sampling", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Trials: 2000, Seed: 9, Workers: w, RareEvent: true,
				TargetFailures: 10, MaxTrials: 40000,
			}, Scheme3DPDDS)
		}},
		{"adaptive stopped by its trial cap", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Trials: 1000, Seed: 15, Workers: w, TargetFailures: 5, MaxTrials: 2500,
			}, Scheme3DPDDS)
		}},
		{"two-tier-replication under rowhammer", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Trials: 2000, Seed: 13, Workers: w, FaultModel: "rowhammer",
				ScenarioParams: map[string]float64{"breakthroughProb": 1e-8},
			}, "two-tier-replication")
		}},
		// The two schemes whose predicates evaluate the whole live set on
		// every arrival (no incremental state of their own), each at
		// enough TSV faults to fail hundreds or dozens of trials.
		{"cerberus-cross-layer", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Rates: Table1Rates().WithTSV(1430), Trials: 3000, Seed: 5, Workers: w,
			}, "cerberus-cross-layer")
		}},
		{"two-tier-replication", func(w int) (any, error) {
			return Simulate(ctx, ReliabilityOptions{
				Rates: Table1Rates().WithTSV(1430), Trials: 3000, Seed: 5, Workers: w,
			}, "two-tier-replication")
		}},
	}
	var golden []goldenRecord
	for _, spec := range specs {
		var want any
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 3, 16} {
				got, err := spec.run(workers)
				if err != nil {
					t.Fatalf("%s: %v", spec.name, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s at GOMAXPROCS %d, Workers %d:\n got %+v\nwant %+v", spec.name, procs, workers, got, want)
				}
			}
		}
		golden = append(golden, goldenRecord{Spec: spec.name, Result: want})
	}
	checkGolden(t, filepath.Join("testdata", "simulate_golden.json"), golden)
}

// TestAdaptiveMatchesFixedRunReproducible: an adaptive run is the fixed
// run with a stop rule. Trial t draws from the seed's stream t whatever
// its batch, and the executor folds importance weights once, in trial
// order, over the whole run, so an adaptive run that never meets its
// target over 8 batches is DeepEqual to the fixed run of MaxTrials
// trials, weights included.
func TestAdaptiveMatchesFixedRunReproducible(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		opts   ReliabilityOptions
		scheme Scheme
	}{
		{"plain with forensics", ReliabilityOptions{Rates: scaledTable1(30).WithTSV(1430), Seed: 3, Forensics: true}, SchemeCitadel},
		{"importance sampling", ReliabilityOptions{Rates: scaledTable1(10).WithTSV(1430), Seed: 5, RareEvent: true, BiasFactor: 16}, SchemeCitadel},
	} {
		fixed, adaptive := tc.opts, tc.opts
		fixed.Trials = 8000
		adaptive.Trials, adaptive.TargetFailures, adaptive.MaxTrials = 1000, 1<<30, 8000
		want, err := Simulate(ctx, fixed, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(ctx, adaptive, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if got.TargetMet || got.Trials != 8000 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: adaptive run differs from the fixed run:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// checkGolden compares records, as indented JSON, with the fixture at
// path, or rewrites the fixture under -update. On a mismatch it names
// every spec whose result drifted.
func checkGolden(t *testing.T, path string, records []goldenRecord) {
	t.Helper()
	gotJSON, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	wantJSON, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(gotJSON) == string(wantJSON) {
		return
	}
	var old []struct {
		Spec   string
		Result json.RawMessage
	}
	if err := json.Unmarshal(wantJSON, &old); err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}
	for i, r := range records {
		got, _ := json.Marshal(r.Result)
		if i >= len(old) || old[i].Spec != r.Spec {
			t.Errorf("%s: not in the fixture at position %d", r.Spec, i)
			continue
		}
		var want bytes.Buffer
		if err := json.Compact(&want, old[i].Result); err != nil || want.String() != string(got) {
			t.Errorf("%s drifted:\n got %s\nwant %s", r.Spec, got, want.String())
		}
	}
	t.Fatal("results differ from golden fixture (regenerate with -update if intentional)")
}
