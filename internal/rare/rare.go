// Package rare estimates tail failure probabilities that naive Monte
// Carlo cannot resolve. Citadel-class schemes push 7-year uncorrectable
// probabilities to ~1e-5 and below, so a realistic trial budget sees
// zero failures and learns only an upper bound.
//
// The estimator is importance sampling: the Poisson fault-arrival process
// is biased toward the large-granularity classes (column and above —
// bank, TSV) that dominate uncorrectable states, and every failing trial
// is unbiased by its likelihood ratio. The bias is an Arrivals source run
// by faultsim's own executor (Options.Engine), and results ride the
// ordinary faultsim.Result (Weighted fields), so forensics, traces,
// adaptive runs, Merge, chunked campaigns and the cluster executor carry
// them unchanged. The package's tests cross-validate it against naive
// runs, a closed form, and multilevel splitting, an independent estimator
// kept in split_test.go.
//
// Biasing only the arrival rates leaves placement and arrival-time
// distributions untouched, so the per-trial likelihood ratio depends
// only on the large-granularity event count n:
//
//	w = Π_c e^{λ'_c−λ_c} (λ_c/λ'_c)^{n_c} = e^{(B−1)Λ} B^{−n}
//
// with Λ the total expected large-granularity events per lifetime
// (fault.Rates.LargeLambda) and B the bias factor.
package rare

import (
	"math"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

// DefaultBiasFactor inflates large-granularity rates 16×. At Table-I
// rates Λ is a few tenths, so exp((B−1)Λ) stays modest while B^(−n)
// concentrates weight on the multi-fault trials that actually fail;
// empirically this lands within a factor of a few of the
// variance-optimal bias across the paper's configurations.
const DefaultBiasFactor = 16

// Options configures an importance-sampled run. The embedded
// faultsim.Options keep their meaning; Rates are the *physical* rates —
// the engine applies the bias internally and reports unbiased estimates.
// NewArrivals is replaced by the biased Poisson source: the likelihood
// ratio below holds only for Poisson arrivals.
type Options struct {
	faultsim.Options
	// BiasFactor multiplies every large-granularity FIT rate during
	// sampling (>= 1; 0 selects DefaultBiasFactor, 1 degenerates to
	// plain Monte Carlo with unit weights).
	BiasFactor float64
}

// Engine returns the faultsim options that run o as an importance-sampled
// study: NewArrivals draws Poisson lifetimes at the biased rates and
// reports each lifetime's likelihood ratio (faultsim.ArrivalWeights), and
// Seed shifts 2^42 trials along the base seed's trial sequence
// (faultsim.SeedAt), so an IS run and a naive run sharing a base seed
// draw disjoint trials and are statistically independent. RunContext,
// fixed-budget or adaptive, and forensic replay then run the estimator,
// with the plain engine's determinism contract.
func (o Options) Engine() faultsim.Options {
	eo := o.Options
	if eo.LifetimeHours == 0 {
		eo.LifetimeHours = fault.LifetimeHours
	}
	bias := o.BiasFactor
	if bias == 0 {
		bias = DefaultBiasFactor
	}
	cfg, biased := o.Config, o.Rates.BiasLarge(bias)
	// Likelihood-ratio constants: log w = delta − n·lnB per trial.
	delta := (bias - 1) * o.Rates.LargeLambda(cfg, eo.LifetimeHours)
	lnB := math.Log(bias)
	eo.NewArrivals = func() faultsim.Arrivals {
		return &biasedArrivals{Sampler: fault.NewSampler(cfg, biased), delta: delta, lnB: lnB}
	}
	eo.Seed = faultsim.SeedAt(o.Seed, 1<<42)
	return eo
}

// biasedArrivals draws Poisson lifetimes at the biased rates and reports
// each lifetime's likelihood ratio, which depends only on its count of
// large-granularity events. It keeps no per-trial state, so the workers'
// sources write nothing per draw that could share a cache line.
type biasedArrivals struct {
	*fault.Sampler
	delta, lnB float64
}

func (b *biasedArrivals) LogWeight(lifetime []fault.Fault) float64 {
	n := 0
	for _, f := range lifetime {
		if f.Class.LargeGranularity() {
			n++
		}
	}
	return b.delta - float64(n)*b.lnB
}
