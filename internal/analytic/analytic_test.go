package analytic

import (
	"context"
	"math"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/stack"
)

// mcOptions builds a Monte Carlo run matching the analytic setting.
func mcOptions(trials int, r fault.Rates) faultsim.Options {
	return faultsim.Options{
		Config: stack.DefaultConfig(),
		Rates:  r,
		Trials: trials,
		Seed:   17,
	}
}

// within asserts |got-want| <= tol + 3*CI.
func within(t *testing.T, name string, mc faultsim.Result, analytic float64, rel float64) {
	t.Helper()
	got := mc.Probability()
	tol := 3*mc.CI95() + rel*analytic
	if math.Abs(got-analytic) > tol {
		t.Errorf("%s: Monte Carlo %.4g vs analytic %.4g (tol %.4g)", name, got, analytic, tol)
	}
}

func TestNoProtectionMatchesAnalytic(t *testing.T) {
	cfg := stack.DefaultConfig()
	r := fault.Table1().WithTSV(143)
	mc := faultsim.RunContext(context.Background(), mcOptions(40000, r), faultsim.Policy{Predicate: ecc.NoProtection{}})
	want := PFailNone(cfg, r, fault.LifetimeHours)
	within(t, "none", mc, want, 0.02)
}

func TestSameBankSymbolMatchesFatalSingles(t *testing.T) {
	// The Same-Bank symbol code fails on word/row/bank/sub-array singles
	// and address-TSV singles; pair terms are second-order.
	cfg := stack.DefaultConfig()
	r := fault.Table1().WithTSV(143)
	mc := faultsim.RunContext(context.Background(), mcOptions(40000, r), faultsim.Policy{
		Predicate: ecc.NewSymbol8(cfg, stack.SameBank),
	})
	want := PFailSingles(cfg, r, fault.LifetimeHours, FatalSingleRate{
		Word: true, Row: true, Bank: true, SubArray: true,
		ATSVFraction: ATSVShare(cfg),
	})
	within(t, "symbol8/same-bank", mc, want, 0.05)
}

func TestThreeDPMatchesPairApproximation(t *testing.T) {
	// 3DP without DDS fails (to first order) on same-stack permanent pairs
	// of bank-scale faults. Boost the rates for Monte Carlo signal; the
	// analytic form scales with them automatically.
	cfg := stack.DefaultConfig()
	r := fault.Table1()
	r.BankPermanent *= 10
	r.ColumnPermanent *= 10
	mc := faultsim.RunContext(context.Background(), mcOptions(30000, r), faultsim.Policy{
		Predicate: ecc.NewParity(cfg, parity.ThreeDP),
	})
	want := PFail3DPNoDDS(cfg, r, fault.LifetimeHours)
	// The pair approximation ignores transient coincidences and row/word
	// interactions: allow 30% slack plus sampling error.
	within(t, "3dp", mc, want, 0.3)
}

func TestATSVShare(t *testing.T) {
	got := ATSVShare(stack.DefaultConfig())
	want := 24.0 / 280.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ATSV share = %v, want %v", got, want)
	}
}

func TestPairProbabilityShape(t *testing.T) {
	cfg := stack.DefaultConfig()
	// Doubling the class rate roughly quadruples the pair probability in
	// the rare-event regime.
	p1 := PFailPermanentPairSameStack(cfg, 100, fault.LifetimeHours)
	p2 := PFailPermanentPairSameStack(cfg, 200, fault.LifetimeHours)
	ratio := p2 / p1
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("pair probability scaling %.2f, want ~4", ratio)
	}
	if PFailPermanentPairSameStack(cfg, 0, fault.LifetimeHours) != 0 {
		t.Error("zero rate should give zero probability")
	}
}
