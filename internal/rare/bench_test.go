package rare

import (
	"context"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/stack"
)

// BenchmarkRareEventTail drives the importance sampler over the
// ~1e-6-tail configuration (Table I scaled 20x down, 3DP). Two metrics
// feed BENCH_faultsim.json: trials/s is the raw simulation rate, and
// efftrials/s the variance-equivalent naive throughput — the number of
// plain Monte Carlo trials per second a naive run would need to match
// this estimator's precision. The ratio of the two is the rare-event
// speedup (>= 100x is the engine's acceptance bar); the bench-check gate
// watches both, so a weight-handling bug that silently inflates variance
// fails CI even if wall-clock speed is unchanged.
func BenchmarkRareEventTail(b *testing.B) {
	cfg := stack.DefaultConfig()
	opt := Options{
		Options:    faultsim.Options{Config: cfg, Rates: tailRates(), Trials: b.N, Seed: 1},
		BiasFactor: 16,
	}
	b.ResetTimer()
	res := faultsim.RunContext(context.Background(), opt.Engine(), threeDP(cfg))
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(res.Trials)/secs, "trials/s")
		b.ReportMetric(res.EffectiveTrials()/secs, "efftrials/s")
	}
}
