package faultsim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Engine microbenchmarks for the incremental-vs-batch evaluation paths.
// These drive Run end to end (sampling + scrubbing + evaluation) so the
// trials/s metric is comparable with the root-level
// BenchmarkMonteCarloTrialThroughput figure quoted in the README.

func benchPolicy(cfg stack.Config) Policy {
	return Policy{
		Name:       "Citadel",
		Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
		UseTSVSwap: true,
		NewSparer:  ddsSparer,
	}
}

func benchRun(b *testing.B, batch bool) {
	opt := Options{
		Config: stack.DefaultConfig(),
		Rates:  fault.Table1().WithTSV(1430),
		Trials: b.N,
		Seed:   1,
	}.withDefaults()
	pol := benchPolicy(opt.Config)
	if batch {
		pol = batchPolicy(pol)
	}
	b.ResetTimer()
	r := RunContext(context.Background(), opt, pol)
	b.ReportMetric(float64(r.Trials)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkTrialsIncremental is the optimized default path.
func BenchmarkTrialsIncremental(b *testing.B) { benchRun(b, false) }

// BenchmarkTrialsBatch runs the same policy through the batch oracle
// (batchPolicy), kept as the speedup baseline.
func BenchmarkTrialsBatch(b *testing.B) { benchRun(b, true) }

// BenchmarkShortCampaigns runs back-to-back 8,000-trial campaigns of
// 3DP+DDS at 20x Table I rates on every CPU, the shape of the repo
// benchmark's engine-multifault workload. BenchmarkTrialsIncremental runs
// one campaign of b.N trials, so it cannot see a campaign's tail, where
// one worker still runs while the others have no work left; here the
// tail recurs every 8,000 trials. b.N counts trials.
func BenchmarkShortCampaigns(b *testing.B) {
	const campaign = 8000
	opt := testOptions(0, 20, 0)
	opt.Workers = runtime.GOMAXPROCS(0)
	pol := Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP), NewSparer: ddsSparer}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += campaign {
		opt.Trials = min(campaign, b.N-done)
		opt.Seed = int64(done)
		RunContext(context.Background(), opt, pol)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkTrialStateRun isolates the trial loop from sampling: replay a
// fixed multi-fault lifetime through ts.run.
func BenchmarkTrialStateRun(b *testing.B) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 64)
	ts := newTrialState(opt.Config, benchPolicy(opt.Config), opt.ScrubIntervalHours)
	for _, fs := range seqs {
		ts.run(fs) // warm scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.run(seqs[i%len(seqs)])
	}
}

// BenchmarkParityStateAdd measures the incremental parity evaluator's Add
// over a rolling window of live faults.
func BenchmarkParityStateAdd(b *testing.B) {
	opt := testOptions(0, 40, 0).withDefaults()
	seqs := trialSequences(opt, 64)
	an := parity.NewAnalyzer(opt.Config, parity.ThreeDP)
	st := an.NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		for _, f := range seqs[i%len(seqs)] {
			if st.Add(f.Region) {
				break
			}
		}
	}
}
