package faultsim

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
)

// TestZeroFailureCI pins the rule-of-three bound: a clean run must report
// a resolvable upper limit, never the old "± 0" that made zero-failure
// results look infinitely precise.
func TestZeroFailureCI(t *testing.T) {
	r := Result{Policy: "x", Trials: 1000}
	// float64(1000) forces the same runtime division CI95 performs —
	// untyped constant folding would differ by one ulp.
	want := zeroFailUpper95 / float64(1000)
	if got := r.CI95(); got != want {
		t.Errorf("CI95 = %v, want zeroFailUpper95/n = %v", got, want)
	}
	// Tiny runs clamp to the trivial bound 1 rather than exceeding it.
	if got := (Result{Policy: "x", Trials: 2}).CI95(); got != 1 {
		t.Errorf("CI95 with 2 trials = %v, want clamped to 1", got)
	}
	s := r.String()
	if !strings.Contains(s, "= 0 (<") || !strings.Contains(s, "at 95%") {
		t.Errorf("zero-failure String does not surface the upper bound: %q", s)
	}
}

// TestResultStringNamesNoLifetime: a Result does not record the lifetime
// it was simulated over, so none of String's three forms may name one. A
// run over 2.5 years used to print "P(fail,7y)".
func TestResultStringNamesNoLifetime(t *testing.T) {
	opt := testOptions(2000, 10, 0)
	opt.LifetimeHours = 2.5 * fault.HoursPerYear
	run := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	if run.Failures == 0 {
		t.Fatalf("want a run with failures: %+v", run)
	}
	for _, r := range []Result{
		run,
		{Policy: "x", Trials: 1000},
		{Policy: "x", Trials: 1000, Failures: 3, Weighted: true, FailWeight: 0.1, FailWeightSq: 0.01},
	} {
		if s := r.String(); !strings.Contains(s, ": P(fail) = ") || strings.Contains(s, "y)") {
			t.Errorf("String() = %q, want \"P(fail) = \" naming no lifetime", s)
		}
	}
}

// TestUnderflowedWeightsPrintUnresolved: a weighted result with failures
// and ESS 0 lost its weights to float underflow, so String prints no
// estimate or interval. A 3DP run at bias 5000 used to print
// "P(fail) = 0 ± 0" and one at bias 1000 "3.03e-287 ± 3e-287".
func TestUnderflowedWeightsPrintUnresolved(t *testing.T) {
	for _, r := range []Result{
		{Policy: "3DP", Trials: 200, Failures: 200, Weighted: true},
		{Policy: "3DP", Trials: 200, Failures: 200, Weighted: true, FailWeight: 6.06e-285},
	} {
		if s := r.String(); !strings.Contains(s, "P(fail) unresolved") || !strings.Contains(s, "ESS 0") || strings.Contains(s, "±") {
			t.Errorf("String() = %q, want an unresolved result naming ESS 0 with no interval", s)
		}
	}
	for _, r := range []Result{
		{Policy: "x", Trials: 1000, Failures: 3, Weighted: true, FailWeight: 1e-160, FailWeightSq: 1e-320},
		{Policy: "x", Trials: 1000, Weighted: true},
		{Policy: "x", Trials: 1000, Failures: 3},
	} {
		if s := r.String(); strings.Contains(s, "unresolved") {
			t.Errorf("String() = %q for a resolved result %+v", s, r)
		}
	}
}

// TestWilsonCIPins pins the Wilson score interval against hand-computed
// values: one failure in a thousand trials, and agreement with the old
// normal approximation in the regime where that approximation was fine.
func TestWilsonCIPins(t *testing.T) {
	one := Result{Policy: "x", Trials: 1000, Failures: 1}
	if got, want := one.CI95(), 0.0027331; math.Abs(got-want) > 1e-6 {
		t.Errorf("Wilson CI95(1/1000) = %.7f, want %.7f", got, want)
	}
	// Large counts: Wilson and the normal approximation must agree to
	// better than 1%, or the replacement changed well-calibrated results.
	big := Result{Policy: "x", Trials: 100000, Failures: 10000}
	p := big.Probability()
	normal := 1.96 * math.Sqrt(p*(1-p)/float64(big.Trials))
	if got := big.CI95(); math.Abs(got-normal)/normal > 0.01 {
		t.Errorf("Wilson CI95 %.6g vs normal approx %.6g: relative gap > 1%%", got, normal)
	}
}

// TestCI95NeverZero is the bugfix contract itself: for any Trials > 0 the
// interval is positive, including the corner the old code got wrong
// (Failures == 0) and the all-failures corner (p == 1, where the normal
// approximation also degenerated to zero).
func TestCI95NeverZero(t *testing.T) {
	for _, trials := range []int{1, 2, 10, 1000, 1000000} {
		for _, failures := range []int{0, 1, trials / 2, trials} {
			r := Result{Policy: "x", Trials: trials, Failures: failures}
			if got := r.CI95(); got <= 0 {
				t.Errorf("CI95(%d/%d) = %v, want > 0", failures, trials, got)
			}
		}
	}
	w := Result{Policy: "x", Trials: 1000, Failures: 3, Weighted: true,
		FailWeight: 0.75, FailWeightSq: 0.1875}
	if got := w.CI95(); got <= 0 {
		t.Errorf("weighted CI95 = %v, want > 0", got)
	}
}

// TestTargetMetDistinguishesConvergenceFromCap: reaching the failure
// target and giving up at MaxTrials used to produce indistinguishable
// results.
func TestTargetMetDistinguishesConvergenceFromCap(t *testing.T) {
	metOpt := testOptions(2000, 100, 0)
	metOpt.TargetFailures, metOpt.MaxTrials = 10, 20000
	met := RunContext(context.Background(), metOpt, Policy{Predicate: ecc.NewParity(metOpt.Config, parity.OneDP)})
	if met.Failures >= 10 && !met.TargetMet {
		t.Errorf("run reached %d failures (target 10) but TargetMet is false", met.Failures)
	}
	// Citadel-grade protection at base rates: the cap stops the run short.
	capOpt := testOptions(1000, 1, 0)
	capOpt.TargetFailures, capOpt.MaxTrials = 100, 3000
	capped := RunContext(context.Background(), capOpt, Policy{
		Predicate: ecc.NewParity(capOpt.Config, parity.ThreeDP),
		NewSparer: ddsSparer,
	})
	if capped.TargetMet {
		t.Errorf("capped run (%d failures of 100) claims TargetMet", capped.Failures)
	}
	// Fixed-budget runs never claim convergence.
	fixed := RunContext(context.Background(), testOptions(500, 100, 0), Policy{Predicate: ecc.NewParity(capOpt.Config, parity.OneDP)})
	if fixed.TargetMet {
		t.Error("fixed-budget Run set TargetMet")
	}
}

// TestMergeNilInNilOut: merging results that never carried optional maps
// or slices must not grow them — campaign code DeepEqual-compares merged
// accumulators against fresh zero values.
func TestMergeNilInNilOut(t *testing.T) {
	m := Merge(Result{}, Result{})
	if !reflect.DeepEqual(m, Result{}) {
		t.Errorf("Merge of zero values is not the zero value: %+v", m)
	}
	plain := Merge(Result{Trials: 5, Failures: 1}, Result{Trials: 5})
	if plain.CauseCounts != nil {
		t.Errorf("merge of cause-free results grew CauseCounts: %v", plain.CauseCounts)
	}
	// One side carrying causes is enough to merge them.
	withCauses := Merge(
		Result{Trials: 5, Failures: 1, CauseCounts: map[string]int{"bank": 1}},
		Result{Trials: 5, Failures: 2, CauseCounts: map[string]int{"bank": 1, "row": 1}},
	)
	if withCauses.CauseCounts["bank"] != 2 || withCauses.CauseCounts["row"] != 1 {
		t.Errorf("merged CauseCounts wrong: %v", withCauses.CauseCounts)
	}
	oneSided := Merge(Result{Trials: 5}, Result{Trials: 5, Failures: 1, CauseCounts: map[string]int{"tsv": 1}})
	if oneSided.CauseCounts["tsv"] != 1 {
		t.Errorf("one-sided CauseCounts merge lost counts: %v", oneSided.CauseCounts)
	}
}

// ScenarioStats follows the same nil-in/nil-out and key-wise additive
// contract as CauseCounts, and survives the JSON checkpoint round-trip
// campaign resume relies on.
func TestMergeScenarioStats(t *testing.T) {
	plain := Merge(Result{Trials: 5}, Result{Trials: 5})
	if plain.ScenarioStats != nil {
		t.Errorf("merge of stat-free results grew ScenarioStats: %v", plain.ScenarioStats)
	}
	m := Merge(
		Result{Trials: 5, ScenarioStats: map[string]float64{"hammerTrials": 5, "hammerEpisodes": 2}},
		Result{Trials: 5, ScenarioStats: map[string]float64{"hammerTrials": 5, "hammerVictimFaults": 3}},
	)
	want := map[string]float64{"hammerTrials": 10, "hammerEpisodes": 2, "hammerVictimFaults": 3}
	if !reflect.DeepEqual(m.ScenarioStats, want) {
		t.Errorf("merged ScenarioStats = %v, want %v", m.ScenarioStats, want)
	}
	oneSided := Merge(Result{Trials: 5}, Result{Trials: 5, ScenarioStats: map[string]float64{"tierFetchRows": 7}})
	if oneSided.ScenarioStats["tierFetchRows"] != 7 {
		t.Errorf("one-sided ScenarioStats merge lost counts: %v", oneSided.ScenarioStats)
	}

	// Checkpoint round-trip: marshal/unmarshal preserves the map exactly
	// and keeps absent maps absent.
	for _, r := range []Result{
		{Trials: 10, Failures: 1, ScenarioStats: map[string]float64{"hammerTrials": 10, "tierFetchSeconds": 0.125}},
		{Trials: 10, Failures: 1},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.ScenarioStats, r.ScenarioStats) {
			t.Errorf("checkpoint round-trip changed ScenarioStats: %v -> %v", r.ScenarioStats, back.ScenarioStats)
		}
	}
}

// weightedResult builds a Weighted result from exactly-representable
// dyadic weights so float equality is meaningful.
func weightedResult(trials, failures int, w, wsq float64, byYear []float64) Result {
	return Result{
		Policy: "x", Trials: trials, Failures: failures, Weighted: true,
		FailWeight: w, FailWeightSq: wsq, FailWeightByYear: byYear,
		FailuresByYear: make([]int, len(byYear)),
	}
}

// TestWeightedMergeAssociative: with dyadic weights every partial sum is
// exact, so both fold orders must agree bit for bit — the property that
// lets chunked campaigns merge checkpoints in any grouping as long as the
// chunk order is fixed.
func TestWeightedMergeAssociative(t *testing.T) {
	a := weightedResult(100, 2, 0.5, 0.25, []float64{0.25, 0.5})
	b := weightedResult(100, 1, 0.25, 0.0625, []float64{0.125, 0.25})
	c := weightedResult(100, 3, 0.125, 0.015625, []float64{0.0625, 0.125})
	l := Merge(Merge(a, b), c)
	r := Merge(a, Merge(b, c))
	if l.FailWeight != r.FailWeight || l.FailWeightSq != r.FailWeightSq {
		t.Errorf("fold orders disagree: (%v, %v) vs (%v, %v)",
			l.FailWeight, l.FailWeightSq, r.FailWeight, r.FailWeightSq)
	}
	for i := range l.FailWeightByYear {
		if l.FailWeightByYear[i] != r.FailWeightByYear[i] {
			t.Errorf("by-year fold orders disagree at %d: %v vs %v",
				i, l.FailWeightByYear, r.FailWeightByYear)
		}
	}
	if l.FailWeight != 0.875 || l.FailWeightSq != 0.328125 {
		t.Errorf("merged weights wrong: %v / %v", l.FailWeight, l.FailWeightSq)
	}
	// A zero-value accumulator must reproduce the other side exactly
	// (0 + x is exact), the identity checkpointed campaigns rely on.
	acc := Merge(Result{}, a)
	if acc.FailWeight != a.FailWeight || acc.FailWeightSq != a.FailWeightSq ||
		!reflect.DeepEqual(acc.FailWeightByYear, a.FailWeightByYear) {
		t.Errorf("zero-accumulator merge perturbed weights: %+v", acc)
	}
}

// TestWeightedPlainMergePromotion: pooling a biased and a naive run
// promotes the naive side to unit weights, keeping the mixture unbiased.
func TestWeightedPlainMergePromotion(t *testing.T) {
	plain := Result{Policy: "x", Trials: 100, Failures: 4, FailuresByYear: []int{1, 4}}
	weighted := weightedResult(100, 2, 0.5, 0.25, []float64{0.25, 0.5})
	m := Merge(plain, weighted)
	if !m.Weighted {
		t.Fatal("merge of weighted and plain not marked Weighted")
	}
	if m.FailWeight != 4.5 {
		t.Errorf("FailWeight = %v, want 4 unit weights + 0.5", m.FailWeight)
	}
	if m.FailWeightSq != 4.25 {
		t.Errorf("FailWeightSq = %v, want 4 + 0.25", m.FailWeightSq)
	}
	if want := []float64{1.25, 4.5}; !reflect.DeepEqual(m.FailWeightByYear, want) {
		t.Errorf("FailWeightByYear = %v, want %v", m.FailWeightByYear, want)
	}
	if got, want := m.Probability(), 4.5/200; got != want {
		t.Errorf("mixture probability = %v, want %v", got, want)
	}
	// Symmetric order.
	m2 := Merge(weighted, plain)
	if m2.FailWeight != m.FailWeight || m2.FailWeightSq != m.FailWeightSq {
		t.Errorf("promotion not symmetric: %v/%v vs %v/%v",
			m2.FailWeight, m2.FailWeightSq, m.FailWeight, m.FailWeightSq)
	}
}

// TestWeightedEnvelopeRoundTrip: weighted chunk results must survive the
// JSON checkpoint wire format bit-exactly (Go prints float64 shortest-
// round-trip), and Validate must reject inconsistent weight fields.
func TestWeightedEnvelopeRoundTrip(t *testing.T) {
	// Awkward, non-dyadic weights: the exact values an IS run produces.
	res := Result{
		Policy: "x", Trials: 5000, Failures: 37, Weighted: true,
		FailWeight:       0.0031415926535897933,
		FailWeightSq:     2.718281828459045e-07,
		FailWeightByYear: []float64{0.001, 0.0031415926535897933},
		FailuresByYear:   []int{12, 37},
	}
	env := ChunkEnvelope{CampaignKey: "k", Chunk: 3, Trials: 5000, Result: res}
	if err := env.Validate(); err != nil {
		t.Fatalf("valid weighted envelope rejected: %v", err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back ChunkEnvelope
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Result.FailWeight != res.FailWeight || back.Result.FailWeightSq != res.FailWeightSq {
		t.Errorf("weights perturbed by JSON: %v/%v vs %v/%v",
			back.Result.FailWeight, back.Result.FailWeightSq, res.FailWeight, res.FailWeightSq)
	}
	if !reflect.DeepEqual(back.Result.FailWeightByYear, res.FailWeightByYear) {
		t.Errorf("by-year weights perturbed: %v vs %v", back.Result.FailWeightByYear, res.FailWeightByYear)
	}

	bad := env
	bad.Result.FailWeight = -1
	if bad.Validate() == nil {
		t.Error("negative FailWeight accepted")
	}
	bad = env
	bad.Result.Weighted = false
	if bad.Validate() == nil {
		t.Error("weight fields without Weighted flag accepted")
	}
	bad = env
	bad.Result.FailWeightSq = 0
	if bad.Validate() == nil {
		t.Error("positive FailWeight with zero FailWeightSq accepted")
	}
}

// TestESSAndEffectiveTrials pins the diagnostic accessors.
func TestESSAndEffectiveTrials(t *testing.T) {
	plain := Result{Policy: "x", Trials: 1000, Failures: 7}
	if got := plain.ESS(); got != 7 {
		t.Errorf("plain ESS = %v, want Failures", got)
	}
	if got := plain.EffectiveTrials(); got != 1000 {
		t.Errorf("plain EffectiveTrials = %v, want Trials", got)
	}
	// Two failures with weights 0.5 and 0.25: ESS = (0.75)^2 / 0.3125.
	w := weightedResult(1000, 2, 0.75, 0.3125, nil)
	if got, want := w.ESS(), 0.75*0.75/0.3125; got != want {
		t.Errorf("weighted ESS = %v, want %v", got, want)
	}
	if got := w.EffectiveTrials(); got <= 0 {
		t.Errorf("weighted EffectiveTrials = %v, want > 0", got)
	}
	if got := (Result{Weighted: true, Trials: 100}).ESS(); got != 0 {
		t.Errorf("weighted zero-failure ESS = %v, want 0", got)
	}
}
