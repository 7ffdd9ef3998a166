package faultsim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestChunkEnvelopeRejectsImpossibleCounts: a chunk's failure count must
// lie in [0, Trials] and each by-year count in [0, Failures]; anything
// else would merge into a campaign whose P(fail) leaves [0, 1].
func TestChunkEnvelopeRejectsImpossibleCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Result
		want string // "" means accepted
	}{
		{"valid", Result{Trials: 5, Failures: 2, FailuresByYear: []int{0, 1, 2}}, ""},
		{"every trial failed", Result{Trials: 5, Failures: 5, FailuresByYear: []int{5}}, ""},
		{"more failures than trials", Result{Trials: 5, Failures: 9}, "9 failures in 5 trials"},
		{"negative failures", Result{Trials: 5, Failures: -3}, "-3 failures"},
		{"by-year count above failures", Result{Trials: 5, Failures: 2, FailuresByYear: []int{1, 3}}, "3 failures by year 2"},
		{"negative by-year count", Result{Trials: 5, Failures: 2, FailuresByYear: []int{-1, 2}}, "-1 failures by year 1"},
	} {
		err := ChunkEnvelope{CampaignKey: "k", Trials: tc.res.Trials, Result: tc.res}.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// FuzzChunkEnvelope decodes arbitrary bytes as a chunk envelope, as a
// coordinator does with a worker's delivery. Validate must not panic, and
// an envelope it accepts must hold a complete result whose failure count
// lies in [0, Trials] with Trials equal to the envelope's, and must merge
// into a zero Result.
func FuzzChunkEnvelope(f *testing.F) {
	f.Add([]byte(`{"campaignKey":"k","chunk":0,"trials":5,"result":{"Trials":5,"Failures":2,"FailuresByYear":[1,2]}}`))
	f.Add([]byte(`{"campaignKey":"k","chunk":0,"trials":5,"result":{"Trials":5,"Failures":9}}`))
	f.Add([]byte(`{"campaignKey":"k","chunk":0,"trials":5,"result":{"Trials":5,"Failures":-3}}`))
	f.Add([]byte(`{"campaignKey":"k","chunk":2,"trials":4,"result":{"Trials":4,"Failures":1,"Weighted":true,"FailWeight":0.5,"FailWeightSq":0.25,"FailWeightByYear":[0.5]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env ChunkEnvelope
		if json.Unmarshal(data, &env) != nil {
			return
		}
		if env.Validate() != nil {
			return
		}
		r := env.Result
		if r.Failures < 0 || r.Failures > r.Trials || r.Trials != env.Trials || r.Partial {
			t.Fatalf("accepted an impossible envelope: trials %d, result trials %d, failures %d, partial %v",
				env.Trials, r.Trials, r.Failures, r.Partial)
		}
		m := Merge(Result{}, r)
		if m.Trials != r.Trials || m.Failures != r.Failures || !reflect.DeepEqual(m.FailuresByYear, append([]int(nil), r.FailuresByYear...)) {
			t.Fatalf("merging into a zero Result changed the counts: %+v from %+v", m, r)
		}
	})
}
