package rare

import (
	"context"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/stack"
)

func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy Monte Carlo test skipped in -short mode")
	}
}

// scaledRates boosts every class rate so a modest trial count produces a
// measurable failure signal (mirrors faultsim's testOptions).
func scaledRates(scale, tsvFIT float64) fault.Rates {
	r := fault.Table1()
	r.BitTransient *= scale
	r.BitPermanent *= scale
	r.WordTransient *= scale
	r.WordPermanent *= scale
	r.ColumnTransient *= scale
	r.ColumnPermanent *= scale
	r.RowTransient *= scale
	r.RowPermanent *= scale
	r.BankTransient *= scale
	r.BankPermanent *= scale
	r.TSVPerDie = tsvFIT
	return r
}

// tailRates is the ~1e-6-tail configuration: Table I scaled down 20x, so
// the 3DP colliding-pair probability lands around 6e-6 over 7 years —
// resolvable by the rare-event engine, hopeless for naive MC at any
// reasonable budget.
func tailRates() fault.Rates { return scaledRates(0.05, 0) }

func threeDP(cfg stack.Config) faultsim.Policy {
	return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
}

func oneDP(cfg stack.Config) faultsim.Policy {
	return faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
}

// TestBiasFactorOneMatchesUnitWeights pins the degenerate case: with no
// bias the likelihood ratio of every trial is exactly one, so the
// weighted tallies must equal the integer tallies bit for bit.
func TestBiasFactorOneMatchesUnitWeights(t *testing.T) {
	cfg := stack.DefaultConfig()
	opt := Options{
		Options: faultsim.Options{
			Config: cfg, Rates: scaledRates(30, 0),
			Trials: 4000, Seed: 7, Workers: 2,
		},
		BiasFactor: 1,
	}
	res := faultsim.Run(opt.Engine(), oneDP(cfg))
	if res.Failures == 0 {
		t.Fatal("test signal too weak: no failures at scale 30")
	}
	if !res.Weighted {
		t.Error("IS result not marked Weighted")
	}
	if res.FailWeight != float64(res.Failures) {
		t.Errorf("FailWeight = %v, want exactly %d", res.FailWeight, res.Failures)
	}
	if res.FailWeightSq != float64(res.Failures) {
		t.Errorf("FailWeightSq = %v, want exactly %d", res.FailWeightSq, res.Failures)
	}
	for i := range res.FailWeightByYear {
		if res.FailWeightByYear[i] != float64(res.FailuresByYear[i]) {
			t.Errorf("FailWeightByYear[%d] = %v, want exactly %d",
				i, res.FailWeightByYear[i], res.FailuresByYear[i])
		}
	}
}

// TestISDeterministic pins the float determinism contract: equal (seed,
// workers) give bit-identical weighted tallies, the property checkpointed
// campaigns depend on.
func TestISDeterministic(t *testing.T) {
	cfg := stack.DefaultConfig()
	opt := Options{
		Options: faultsim.Options{
			Config: cfg, Rates: scaledRates(20, 0),
			Trials: 3000, Seed: 11, Workers: 3,
		},
		BiasFactor: 4,
	}
	a := faultsim.Run(opt.Engine(), oneDP(cfg))
	b := faultsim.Run(opt.Engine(), oneDP(cfg))
	if a.FailWeight != b.FailWeight || a.FailWeightSq != b.FailWeightSq {
		t.Errorf("same seed produced FailWeight %v/%v and FailWeightSq %v/%v",
			a.FailWeight, b.FailWeight, a.FailWeightSq, b.FailWeightSq)
	}
	if a.Failures != b.Failures || a.Trials != b.Trials {
		t.Errorf("same seed produced %d/%d failures over %d/%d trials",
			a.Failures, b.Failures, a.Trials, b.Trials)
	}
}

// TestISMatchesNaiveOnInflatedConfig cross-validates the importance
// sampler against the batch oracle where naive MC is tractable: the two
// estimates must agree within their combined 95% intervals.
func TestISMatchesNaiveOnInflatedConfig(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()
	base := faultsim.Options{
		Config: cfg, Rates: scaledRates(10, 0),
		Trials: 30000, Seed: 5,
	}
	naive := faultsim.Run(base, oneDP(cfg))
	is := faultsim.Run(Options{Options: base, BiasFactor: 2}.Engine(), oneDP(cfg))
	if naive.Failures < 50 {
		t.Fatalf("test signal too weak: naive saw only %d failures", naive.Failures)
	}
	diff := math.Abs(naive.Probability() - is.Probability())
	tol := 3 * (naive.CI95() + is.CI95())
	if diff > tol {
		t.Errorf("IS %.4g vs naive %.4g: |diff| %.4g > tol %.4g (IS: %s)",
			is.Probability(), naive.Probability(), diff, tol, is)
	}
	if ess := is.ESS(); ess <= 0 {
		t.Errorf("ESS = %v, want > 0 with %d failures", ess, is.Failures)
	}
}

// TestISMatchesAnalytic3DP checks the second correctness pin: the
// importance-sampled 3DP estimate against the closed-form colliding-pair
// approximation.
func TestISMatchesAnalytic3DP(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()
	rates := fault.Table1()
	opt := Options{
		Options: faultsim.Options{
			Config: cfg, Rates: rates,
			Trials: 60000, Seed: 3,
		},
		BiasFactor: 4,
	}
	res := faultsim.Run(opt.Engine(), threeDP(cfg))
	want := analytic.PFail3DPNoDDS(cfg, rates, fault.LifetimeHours)
	if res.Failures < 20 {
		t.Fatalf("IS signal too weak: %d failures", res.Failures)
	}
	got := res.Probability()
	// The closed form is an approximation (pairs only, collision
	// geometry averaged), so allow 3 sigma plus 25% model error.
	tol := 3*res.CI95() + 0.25*want
	if math.Abs(got-want) > tol {
		t.Errorf("IS P(fail) = %.4g, analytic %.4g, |diff| > tol %.4g (%s)",
			got, want, tol, res)
	}
}

// TestRareEventSpeedupOnTail pins the acceptance criterion: on a
// ~1e-6-tail config the engine reaches a <= +-20% relative CI while its
// variance matches >= 100x as many naive trials.
func TestRareEventSpeedupOnTail(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()
	opt := Options{
		Options:    faultsim.Options{Config: cfg, Rates: tailRates(), Trials: 200000, Seed: 1},
		BiasFactor: 16,
	}
	res := faultsim.Run(opt.Engine(), threeDP(cfg))
	p := res.Probability()
	if p <= 0 || p > 1e-4 {
		t.Fatalf("tail config drifted: P(fail) = %.3g, want ~1e-6..1e-4 (%s)", p, res)
	}
	if rel := res.CI95() / p; rel > 0.20 {
		t.Errorf("relative CI %.1f%% > 20%% (%d failures, ESS %.1f)",
			100*rel, res.Failures, res.ESS())
	}
	if eff := res.EffectiveTrials(); eff < 100*float64(res.Trials) {
		t.Errorf("effective trials %.3g < 100x the %d simulated (speedup %.0fx)",
			eff, res.Trials, eff/float64(res.Trials))
	}
}

// TestISCancellation mirrors the plain engine's contract: a cancelled
// run keeps its completed trials and is marked Partial.
func TestISCancellation(t *testing.T) {
	cfg := stack.DefaultConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{
		Options: faultsim.Options{Config: cfg, Rates: scaledRates(10, 0), Trials: 50000, Seed: 2},
	}
	res := faultsim.RunContext(ctx, opt.Engine(), oneDP(cfg))
	if !res.Partial {
		t.Error("cancelled run not marked Partial")
	}
	if res.Err == nil {
		t.Error("cancelled run carries no Err")
	}
	if res.Trials >= opt.Trials {
		t.Errorf("cancelled run completed all %d trials", res.Trials)
	}
}
