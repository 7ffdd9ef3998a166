package citadel

import (
	"reflect"
	"runtime"
	"testing"
)

// TestEnginesDeterministicAcrossHostShapes: a seeded result is a pure
// function of its spec, whatever the host's CPU count or the worker
// count. One spec per engine runs at GOMAXPROCS 1, 2 and 8 × Workers 1, 3
// and 16, and all nine Results must be DeepEqual — importance weights,
// ScenarioStats and exemplars included.
func TestEnginesDeterministicAcrossHostShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("45 Monte Carlo runs; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	hot := scaledTable1(10).WithTSV(1430)
	specs := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"plain Citadel with forensics", func(w int) (any, error) {
			return SimulateScenarioReliability(ReliabilityOptions{
				Rates: scaledTable1(30).WithTSV(1430), Trials: 3000, Seed: 3, Workers: w, Forensics: true,
			}, "Citadel")
		}},
		{"importance sampling at bias 16", func(w int) (any, error) {
			return SimulateScenarioReliability(ReliabilityOptions{
				Rates: hot, Trials: 2000, Seed: 5, Workers: w, RareEvent: true, BiasFactor: 16,
			}, "Citadel")
		}},
		{"census", func(w int) (any, error) {
			return RunFaultCensus(ReliabilityOptions{Rates: hot, Trials: 2000, Seed: 7, Workers: w, TSVSwap: true}), nil
		}},
		{"adaptive in 500-trial batches", func(w int) (any, error) {
			return SimulateScenarioReliabilityAdaptive(ReliabilityOptions{
				Rates: scaledTable1(30).WithTSV(1430), Trials: 500, Seed: 11, Workers: w, Forensics: true,
			}, "Citadel", 150, 5000)
		}},
		{"two-tier-replication under rowhammer", func(w int) (any, error) {
			return SimulateScenarioReliability(ReliabilityOptions{
				Trials: 2000, Seed: 13, Workers: w, FaultModel: "rowhammer",
				ScenarioParams: map[string]float64{"breakthroughProb": 1e-8},
			}, "two-tier-replication")
		}},
	}
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
	}
}
