package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// pinnedSpecs are wire specs whose content keys are pinned below. Every
// stored result, checkpoint and lease grant is addressed by such a key,
// so a field added without omitempty, a retagged or reordered field, or
// a changed default would orphan them all.
var pinnedSpecs = []struct {
	name string
	spec Spec
	key  string
}{
	{"default Citadel", Spec{Reliability: &ReliabilitySpec{Scheme: "Citadel"}},
		"9c0bb64e784b08ded84cb0490d5da4889068552848a54ea2a5f25374c03874e4"},
	{"benchmark service shape", Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 50000, TSVFIT: 1430, Seed: 7301, Workers: 2, CheckpointTrials: 25000,
	}}, "df52bf08cba710d8bea801639163f198321755a3de206d38db98a2be5a5d254c"},
	{"rare event", Spec{Reliability: &ReliabilitySpec{
		Scheme: "1DP", Trials: 8000, TSVFIT: 1430, Seed: 3, CheckpointTrials: 400, RareEvent: true,
	}}, "a416515b035f73bc0197e938279776bba4379e2e0a8edecb0d57f7fe667b93ab"},
	{"rowhammer with a parameter", Spec{Reliability: &ReliabilitySpec{
		Scheme: "two-tier-replication", Trials: 2000, Seed: 7, CheckpointTrials: 500,
		FaultModel: "rowhammer", ScenarioParams: map[string]float64{"breakthroughProb": 1e-7},
	}}, "9bc145d16e3770effc079e5e1695831bf816d5af95d09bcecc1f8420f6435d17"},
	{"performance", Spec{Performance: &PerformanceSpec{Benchmark: "mcf", Protection: "3dp", Requests: 2000, Seed: 3}},
		"bc2f1acfbbd3a54f99cb410e2dee8792f48126020f1eebbff57c7b29d1c6f96a"},
	{"experiment", Spec{Experiment: &ExperimentSpec{ID: "fig14", Trials: 500, Requests: 500, Seed: 2}},
		"fef34f5500af101240f2af0693d1b0393781dc37db7e82407f9e6aa081813c07"},
}

// TestPinnedKeys: the content keys of the pinned specs never change.
func TestPinnedKeys(t *testing.T) {
	for _, p := range pinnedSpecs {
		got, err := p.spec.Key()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.key {
			t.Errorf("%s: key %s, want %s", p.name, got, p.key)
		}
	}
}

// FuzzSpecJSON decodes arbitrary bytes as a wire spec, as the job route
// does. Validate must not panic, and a spec it accepts normalizes
// idempotently to a spec with the same content key.
func FuzzSpecJSON(f *testing.F) {
	for _, p := range pinnedSpecs {
		data, err := json.Marshal(p.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Plugin knobs, the fields a campaign rejects, and a named kind.
	f.Add([]byte(`{"reliability":{"scheme":"cerberus-cross-layer","scenarioParams":{"ondieWordBits":64}}}`))
	f.Add([]byte(`{"reliability":{"scheme":"Citadel","faultModel":"rowhammer","scenarioParams":{"aggressors":8,"rateSigma":0.5}}}`))
	f.Add([]byte(`{"reliability":{"scheme":"3DP","targetFailures":5,"maxTrials":900,"forensics":true,"maxExemplars":2}}`))
	f.Add([]byte(`{"kind":"experiment","priority":3,"experiment":{"id":"orgs","trials":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s Spec
		if dec.Decode(&s) != nil || s.Validate() != nil {
			return
		}
		n := s.Normalize()
		if nn := n.Normalize(); !reflect.DeepEqual(nn, n) {
			once, _ := json.Marshal(n)
			twice, _ := json.Marshal(nn)
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", once, twice)
		}
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kn, err := n.Key(); err != nil || kn != k {
			t.Fatalf("key %s of the spec, %s (%v) of its normal form", k, kn, err)
		}
	})
}
