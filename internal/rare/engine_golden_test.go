package rare

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ecc"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// engineGolden pins the engines that no other golden covers — importance
// sampling, the fault census and the adaptive batch driver — to exact
// results, weighted float tallies included. The fixture
// (testdata/engine_golden.json, regenerate with
// `go test ./internal/rare/ -run EngineGolden -update`) was captured
// when every trial began drawing from its own stream; any drift means
// the executor changed what a seeded run samples.
type engineGolden struct {
	IS       map[string]faultsim.Result
	Census   map[string]faultsim.Census
	Adaptive map[string]faultsim.Result
}

func goldenCitadelLike(cfg stack.Config) faultsim.Policy {
	return faultsim.Policy{
		Name:       "CitadelLike",
		Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
		UseTSVSwap: true,
		NewSparer:  func(c stack.Config) faultsim.Sparer { return sparing.New(c) },
	}
}

func runEngineGolden() engineGolden {
	cfg := stack.DefaultConfig()
	g := engineGolden{
		IS:       map[string]faultsim.Result{},
		Census:   map[string]faultsim.Census{},
		Adaptive: map[string]faultsim.Result{},
	}
	for _, workers := range []int{1, 3} {
		for _, bias := range []float64{1, 4, 16} {
			g.IS[fmt.Sprintf("bias=%g/workers=%d", bias, workers)] = faultsim.RunContext(context.Background(), Options{
				Options: faultsim.Options{
					Config: cfg, Rates: scaledRates(10, 1430),
					Trials: 2000, Seed: 31, Workers: workers,
				},
				BiasFactor: bias,
			}.Engine(), goldenCitadelLike(cfg))
		}
		key := fmt.Sprintf("workers=%d", workers)
		g.Census[key] = faultsim.RunCensusContext(context.Background(), faultsim.Options{
			Config: cfg, Rates: scaledRates(25, 500),
			Trials: 2000, Seed: 37, Workers: workers,
		}, true)
		g.Adaptive[key] = faultsim.RunContext(context.Background(), faultsim.Options{
			Config: cfg, Rates: scaledRates(1, 0),
			Trials: 500, Seed: 41, Workers: workers,
			TargetFailures: 40, MaxTrials: 6000,
		}, oneDP(cfg))
	}
	return g
}

// TestEngineGolden runs every pinned case at Workers 1 and 3 under
// GOMAXPROCS 4; the fixture holds equal values for both counts.
func TestEngineGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := runEngineGolden()
	path := filepath.Join("testdata", "engine_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	var want engineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want.IS {
		if g := got.IS[k]; !reflect.DeepEqual(g, w) {
			t.Errorf("IS %s drifted:\n got %+v\nwant %+v", k, g, w)
		}
	}
	for k, w := range want.Census {
		if g := got.Census[k]; !reflect.DeepEqual(g, w) {
			t.Errorf("census %s drifted:\n got %+v\nwant %+v", k, g, w)
		}
	}
	for k, w := range want.Adaptive {
		if g := got.Adaptive[k]; !reflect.DeepEqual(g, w) {
			t.Errorf("adaptive %s drifted:\n got %+v\nwant %+v", k, g, w)
		}
	}
	if len(got.IS) != len(want.IS) || len(got.Census) != len(want.Census) || len(got.Adaptive) != len(want.Adaptive) {
		t.Errorf("fixture covers %d/%d/%d cases, run produced %d/%d/%d",
			len(want.IS), len(want.Census), len(want.Adaptive), len(got.IS), len(got.Census), len(got.Adaptive))
	}
}
