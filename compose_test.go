package citadel

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// scaledTable1 multiplies every Table I class rate by k.
func scaledTable1(k float64) FITRates {
	r := Table1Rates()
	for _, p := range []*float64{
		&r.BitTransient, &r.BitPermanent, &r.WordTransient, &r.WordPermanent,
		&r.ColumnTransient, &r.ColumnPermanent, &r.RowTransient, &r.RowPermanent,
		&r.BankTransient, &r.BankPermanent,
	} {
		*p *= k
	}
	return r
}

// verifyForensics checks that a forensics run captured exemplars and that
// its report replays every one of them exactly.
func verifyForensics(t *testing.T, opts ReliabilityOptions, scheme Scheme, res Result) {
	t.Helper()
	if res.Failures == 0 || len(res.Exemplars) == 0 {
		t.Fatalf("no failures to replay: %s", res)
	}
	if err := VerifyReport(NewForensicsReport(opts, scheme, res)); err != nil {
		t.Fatalf("report does not replay: %v", err)
	}
}

// TestRareEventForensicsReplay: an importance-sampled run captures
// replayable exemplars, drawn from the biased arrival source and the
// shifted rare seed.
func TestRareEventForensicsReplay(t *testing.T) {
	opts := ReliabilityOptions{
		Rates: Table1Rates().WithTSV(143), Trials: 3000, Seed: 5, Workers: 2,
		RareEvent: true, BiasFactor: 8, Forensics: true,
	}
	res := simulate(t, opts, Scheme3DP)
	if !res.Weighted {
		t.Fatalf("rare-event result not Weighted: %s", res)
	}
	verifyForensics(t, opts, Scheme3DP, res)
}

// TestAdaptiveRareEvent: the adaptive driver importance-samples every
// batch when RareEvent is set, instead of silently running plain trials.
func TestAdaptiveRareEvent(t *testing.T) {
	opts := ReliabilityOptions{
		Trials: 2000, Seed: 9, Workers: 2, RareEvent: true,
		TargetFailures: 10, MaxTrials: 40000,
	}
	res := simulate(t, opts, Scheme3DPDDS)
	if !res.Weighted || !res.TargetMet {
		t.Fatalf("adaptive rare-event run: Weighted=%t TargetMet=%t (%s)", res.Weighted, res.TargetMet, res)
	}
	if p := res.Probability(); p <= 0 || p > 1e-3 {
		t.Errorf("adaptive IS estimate %.3g is not an unbiased tail probability", p)
	}
}

// TestScenarioForensicsReplay: a registry-only scheme under a non-Poisson
// fault model records its scenario in the report and replays through the
// same arrival plugin.
func TestScenarioForensicsReplay(t *testing.T) {
	opts := ReliabilityOptions{
		Rates: scaledTable1(20), Trials: 500, Seed: 3, Workers: 2, Forensics: true,
		FaultModel:     "rowhammer",
		ScenarioParams: map[string]float64{"breakthroughProb": 1e-7, "fetchLatencyMicros": 2},
	}
	scheme := Scheme("two-tier-replication")
	res := simulate(t, opts, scheme)
	verifyForensics(t, opts, scheme, res)
	// A report that forgets the fault model must not replay.
	report := NewForensicsReport(opts, scheme, res)
	report.FaultModel = ""
	if VerifyReport(report) == nil {
		t.Error("exemplars replayed under the wrong fault model")
	}
}

// TestValidateRejections pins the complete list of rejected feature
// combinations, and that everything else composes.
func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   ReliabilityOptions
		scheme Scheme
		want   string // "" means accepted
	}{
		{"plain", ReliabilityOptions{}, SchemeCitadel, ""},
		{"rare+forensics", ReliabilityOptions{RareEvent: true, BiasFactor: 4, Forensics: true}, SchemeCitadel, ""},
		{"adaptive rare", ReliabilityOptions{RareEvent: true, TargetFailures: 10, MaxTrials: 40000}, SchemeCitadel, ""},
		{"registry scheme", ReliabilityOptions{}, "cerberus-cross-layer", ""},
		{"rowhammer forensics", ReliabilityOptions{FaultModel: "rowhammer", Forensics: true}, "two-tier-replication", ""},
		{"unknown scheme", ReliabilityOptions{}, "no-such-scheme", "unknown scheme"},
		{"unknown fault model", ReliabilityOptions{FaultModel: "meteor"}, SchemeCitadel, "unknown fault model"},
		{"unknown param", ReliabilityOptions{ScenarioParams: map[string]float64{"warp": 1}}, SchemeCitadel, "unknown parameter"},
		{"bad param value", ReliabilityOptions{ScenarioParams: map[string]float64{"ondieWordBits": 100}}, "cerberus-cross-layer", "ondieWordBits"},
		{"bias without rare", ReliabilityOptions{BiasFactor: 4}, SchemeCitadel, "requires rareEvent"},
		{"bias below one", ReliabilityOptions{RareEvent: true, BiasFactor: 0.5}, SchemeCitadel, ">= 1"},
		{"NaN bias", ReliabilityOptions{RareEvent: true, BiasFactor: math.NaN()}, Scheme3DP, "biasFactor"},
		{"infinite bias", ReliabilityOptions{RareEvent: true, BiasFactor: math.Inf(1)}, Scheme3DP, "biasFactor"},
		{"NaN param", ReliabilityOptions{ScenarioParams: map[string]float64{"fetchBandwidthGBps": math.NaN()}}, "two-tier-replication", "fetchBandwidthGBps"},
		{"infinite param", ReliabilityOptions{ScenarioParams: map[string]float64{"fetchLatencyMicros": math.Inf(1)}}, "two-tier-replication", "fetchLatencyMicros"},
		{"infinite fault-model param", ReliabilityOptions{FaultModel: "rowhammer", ScenarioParams: map[string]float64{"rateSigma": math.Inf(1)}}, SchemeCitadel, "rateSigma"},
		{"rare non-poisson", ReliabilityOptions{RareEvent: true, FaultModel: "rowhammer"}, SchemeCitadel, "poisson"},
		{"negative trials", ReliabilityOptions{Trials: -5}, SchemeCitadel, "non-negative"},
		{"negative target", ReliabilityOptions{TargetFailures: -1}, SchemeCitadel, "non-negative"},
		{"negative cap", ReliabilityOptions{TargetFailures: 10, MaxTrials: -1}, SchemeCitadel, "non-negative"},
		{"cap without target", ReliabilityOptions{MaxTrials: 5}, SchemeCitadel, "requires targetFailures"},
		{"negative lifetime", ReliabilityOptions{LifetimeYears: -1}, SchemeCitadel, "lifetimeYears"},
		{"NaN lifetime", ReliabilityOptions{LifetimeYears: math.NaN()}, SchemeCitadel, "lifetimeYears"},
		{"infinite lifetime", ReliabilityOptions{LifetimeYears: math.Inf(1)}, SchemeCitadel, "lifetimeYears"},
		{"negative scrub", ReliabilityOptions{ScrubIntervalHours: -5}, SchemeCitadel, "scrubIntervalHours"},
		{"NaN scrub", ReliabilityOptions{ScrubIntervalHours: math.NaN()}, SchemeCitadel, "scrubIntervalHours"},
		{"negative rate", ReliabilityOptions{Rates: Table1Rates().WithTSV(-5)}, SchemeCitadel, "TSVPerDie"},
		{"NaN rate", ReliabilityOptions{Rates: FITRates{RowPermanent: math.NaN()}}, SchemeCitadel, "RowPermanent"},
		{"rate past the Poisson sampler", ReliabilityOptions{Rates: Table1Rates().WithTSV(1e13)}, SchemeCitadel, "TSV faults at 1e+13 FIT"},
		{"infinite rate", ReliabilityOptions{Rates: Table1Rates().WithTSV(math.Inf(1))}, SchemeCitadel, "TSV faults at +Inf FIT"},
		{"bias past the Poisson sampler", ReliabilityOptions{RareEvent: true, BiasFactor: 1e6}, Scheme3DP, "biasFactor 1e+06"},
		{"default bias at 30x rates", ReliabilityOptions{Rates: scaledTable1(30).WithTSV(1430), RareEvent: true}, SchemeCitadel, ""},
		{"bias 16 at 100x rates", ReliabilityOptions{Rates: scaledTable1(100).WithTSV(14300), RareEvent: true, BiasFactor: 16}, Scheme3DPDDS, ""},
	} {
		err := tc.opts.Validate(tc.scheme)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// Simulate returns the same error, with a zero Result.
	if res, err := Simulate(context.Background(), ReliabilityOptions{Trials: 10}, "no-such-scheme"); err == nil || res.Trials != 0 {
		t.Errorf("unknown scheme ran: %+v, %v", res, err)
	}
	if res, err := Simulate(context.Background(), ReliabilityOptions{Trials: 10, LifetimeYears: -1}, SchemeCitadel); err == nil || res.Trials != 0 {
		t.Errorf("negative lifetime ran: %+v, %v", res, err)
	}
}

// TestNegativeTrialCountsRejected: a negative trial count, failure target
// or trial cap is an error from Simulate, returned at once; an adaptive
// run must not start batches that add no trials.
func TestNegativeTrialCountsRejected(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		trials, target, maxTrials int
	}{
		{"trials", -5, 10, 40000},
		{"target", 1000, -1, 40000},
		{"cap", 1000, 10, -1},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(context.Background(), ReliabilityOptions{
				Trials: tc.trials, TargetFailures: tc.target, MaxTrials: tc.maxTrials,
			}, SchemeCitadel)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "non-negative") {
				t.Errorf("adaptive, negative %s: got %v, want a non-negative error", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("adaptive, negative %s: no return within 10 s", tc.name)
		}
	}
	if _, err := Simulate(context.Background(), ReliabilityOptions{Trials: -5}, SchemeCitadel); err == nil {
		t.Error("a run of -5 trials was accepted")
	}
}
