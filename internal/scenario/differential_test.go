// Differential test: every seed-era scheme built through the scenario
// registry must produce bit-identical Monte Carlo results to the
// pre-registry hand-wired construction. The hand-wired policies below
// replicate, verbatim, the switch that citadel.Scheme.policy contained
// before the registry refactor; if a registry plugin ever drifts (a
// different layout, a lost sparer, a renamed policy), the DeepEqual
// against this frozen construction catches it.
//
// A golden fixture (testdata/differential_golden.json, regenerate with
// `go test ./internal/scenario/ -run Differential -update`) additionally
// pins the absolute numbers, so a behavioral change in the engine or
// the predicates themselves cannot hide behind "both sides moved".
package scenario_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	citadel "repro"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

const (
	diffTrials = 2000
	diffSeed   = 12345
	diffTSVFIT = 1430
)

// handWired reproduces the pre-refactor Scheme.policy switch exactly.
func handWired(name string, cfg stack.Config, tsvSwap bool) faultsim.Policy {
	dds := func(c stack.Config) faultsim.Sparer { return sparing.New(c) }
	var p faultsim.Policy
	citadelNative := false
	switch name {
	case "None":
		p = faultsim.Policy{Predicate: ecc.NoProtection{}}
	case "Symbol8/Same-Bank":
		p = faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.SameBank)}
	case "Symbol8/Across-Banks":
		p = faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossBanks)}
	case "Symbol8/Across-Channels":
		p = faultsim.Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
	case "1DP":
		p = faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
	case "2DP":
		p = faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.TwoDP)}
	case "3DP":
		p = faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
	case "3DP+DDS":
		p = faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP), NewSparer: dds}
	case "Citadel":
		p = faultsim.Policy{
			Predicate: ecc.NewParity(cfg, parity.ThreeDP),
			NewSparer: dds, UseTSVSwap: true,
		}
		citadelNative = true
	case "BCH-6EC7ED":
		p = faultsim.Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
	case "RAID-5":
		p = faultsim.Policy{Predicate: ecc.NewRAID5(cfg)}
	case "2D-ECC":
		p = faultsim.Policy{Predicate: ecc.NewTwoDECC(cfg)}
	default:
		panic("unknown seed scheme " + name)
	}
	if tsvSwap {
		p.UseTSVSwap = true
	}
	p.Name = name
	if p.UseTSVSwap && !citadelNative {
		p.Name += "+TSV-Swap"
	}
	return p
}

var diffSchemes = []string{
	"None", "Symbol8/Same-Bank", "Symbol8/Across-Banks", "Symbol8/Across-Channels",
	"1DP", "2DP", "3DP", "3DP+DDS", "Citadel", "BCH-6EC7ED", "RAID-5", "2D-ECC",
}

type diffRecord struct {
	Scheme  string
	TSVSwap bool
	Result  faultsim.Result
}

func TestRegistryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("24 Monte Carlo runs; skipped in -short")
	}
	cfg := stack.DefaultConfig()
	rates := fault.Table1().WithTSV(diffTSVFIT)
	var golden []diffRecord
	for _, name := range diffSchemes {
		for _, tsvSwap := range []bool{false, true} {
			pol := handWired(name, cfg, tsvSwap)
			want := faultsim.Run(faultsim.Options{
				Config:             cfg,
				Rates:              rates,
				Trials:             diffTrials,
				LifetimeHours:      7 * fault.HoursPerYear,
				ScrubIntervalHours: faultsim.DefaultScrubIntervalHours,
				Seed:               diffSeed,
			}, pol)

			got, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
				Rates:   rates,
				Trials:  diffTrials,
				TSVSwap: tsvSwap,
				Seed:    diffSeed,
			}, citadel.Scheme(name))
			if err != nil {
				t.Fatalf("%s tsvSwap=%t: %v", name, tsvSwap, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s tsvSwap=%t: registry result diverges from hand-wired construction\nregistry:   %+v\nhand-wired: %+v",
					name, tsvSwap, got, want)
			}
			golden = append(golden, diffRecord{Scheme: name, TSVSwap: tsvSwap, Result: got})
		}
	}

	path := filepath.Join("testdata", "differential_golden.json")
	gotJSON, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	if string(gotJSON) != string(wantJSON) {
		var old []diffRecord
		if err := json.Unmarshal(wantJSON, &old); err != nil {
			t.Fatalf("golden fixture unreadable: %v", err)
		}
		for i := range golden {
			if i < len(old) && !reflect.DeepEqual(golden[i], old[i]) {
				t.Errorf("golden drift at %s tsvSwap=%t:\n got %+v\nwant %+v",
					golden[i].Scheme, golden[i].TSVSwap, golden[i].Result, old[i].Result)
			}
		}
		t.Fatal("results differ from golden fixture (regenerate with -update if intentional)")
	}
}

// TestRowhammerEndToEnd is the `make check` race-smoke target: a short
// rowhammer run through the full public pipeline, deterministic and
// carrying arrival statistics.
func TestRowhammerEndToEnd(t *testing.T) {
	opts := citadel.ReliabilityOptions{
		Trials:     500,
		Seed:       99,
		Workers:    2,
		TSVSwap:    true,
		FaultModel: "rowhammer",
		ScenarioParams: map[string]float64{
			"breakthroughProb": 1e-7,
		},
	}
	run := func() citadel.Result {
		res, err := citadel.Simulate(context.Background(), opts, "Citadel")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rowhammer run not deterministic for fixed (seed, workers)")
	}
	if a.Trials != 500 || a.Partial || a.Err != nil {
		t.Fatalf("unexpected result shape: %+v", a)
	}
	if a.ScenarioStats["hammerTrials"] != 500 {
		t.Fatalf("hammerTrials = %g, want 500 (stats: %v)", a.ScenarioStats["hammerTrials"], a.ScenarioStats)
	}
	if a.ScenarioStats["hammerEpisodes"] <= 0 {
		t.Fatalf("no hammer episodes recorded: %v", a.ScenarioStats)
	}
}

// The two new schemes run end-to-end through the public API and carry
// their observer statistics into Result.ScenarioStats.
func TestNewSchemesEndToEnd(t *testing.T) {
	for _, name := range []string{"two-tier-replication", "cerberus-cross-layer"} {
		res, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
			Trials: 500, Seed: 7, Workers: 2,
		}, citadel.Scheme(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Policy != name || res.Trials != 500 {
			t.Fatalf("%s: unexpected result %+v", name, res)
		}
		if name == "two-tier-replication" && res.ScenarioStats["tierFetchEvents"] <= 0 {
			t.Fatalf("%s: no fetch events in stats %v", name, res.ScenarioStats)
		}
	}
}

// Unknown scenario selections fail loudly through the public API.
func TestScenarioErrorsSurface(t *testing.T) {
	if _, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{Trials: 1}, "no-such"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
		Trials: 1, FaultModel: "no-such",
	}, "Citadel"); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	if _, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
		Trials: 1, RareEvent: true, FaultModel: "rowhammer",
	}, "Citadel"); err == nil {
		t.Fatal("rare-event engine accepted a non-poisson fault model")
	}
	if _, err := citadel.Simulate(context.Background(), citadel.ReliabilityOptions{
		Trials: 1, ScenarioParams: map[string]float64{"bogus": 1},
	}, "Citadel"); err == nil {
		t.Fatal("unknown scenario parameter accepted")
	}
}
