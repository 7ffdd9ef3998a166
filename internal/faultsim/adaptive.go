package faultsim

import (
	"context"
	"math"
	"time"

	"repro/internal/fault"
)

// AdaptiveOptions controls a failure-count-targeted run: trials are added
// in batches until at least TargetFailures failures are observed (tight
// relative confidence) or MaxTrials is reached. This is how the paper runs
// "more trials for schemes that show lower failure rates, to improve
// accuracy" (§III-B).
type AdaptiveOptions struct {
	Options
	// TargetFailures is the failure count to accumulate (default 100,
	// giving ~±20% relative CI at 95%).
	TargetFailures int
	// MaxTrials bounds the total work (default 10x Options.Trials).
	MaxTrials int
	// BatchTrials is the step size (default Options.Trials). The run ends
	// early, without error, if it is negative.
	BatchTrials int
}

// withDefaults fills zero fields.
func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	o.Options = o.Options.withDefaults()
	if o.TargetFailures == 0 {
		o.TargetFailures = 100
	}
	if o.BatchTrials == 0 {
		o.BatchTrials = o.Options.Trials
	}
	if o.MaxTrials == 0 {
		o.MaxTrials = 10 * o.Options.Trials
	}
	return o
}

// weightedView returns r with its weighted fields materialized: a plain
// result is a weighted result whose every failing trial carried weight
// one (the likelihood ratio of a sample under its own measure), so
// FailWeight = FailWeightSq = Failures and FailWeightByYear mirrors
// FailuresByYear. This is what lets Merge pool a biased and a naive run
// into one unbiased mixture estimate.
func (r Result) weightedView() Result {
	if r.Weighted {
		return r
	}
	r.FailWeight = float64(r.Failures)
	r.FailWeightSq = float64(r.Failures)
	if len(r.FailuresByYear) > 0 {
		wy := make([]float64, len(r.FailuresByYear))
		for i, v := range r.FailuresByYear {
			wy[i] = float64(v)
		}
		r.FailWeightByYear = wy
	}
	return r
}

// Merge combines two independent runs of the same policy. A partial
// input yields a partial merged result carrying the first non-nil
// cancellation cause, whichever side it came from.
//
// FailuresByYear slices of different lengths (a zero-value accumulator,
// or runs with different LifetimeHours) merge into the longer horizon:
// within the shorter run's horizon the cumulative counts add directly,
// and beyond it the shorter run contributes its final cumulative count
// (a trial that failed by year y has certainly failed by every later
// year; failures the shorter run never simulated are necessarily
// missing either way).
//
// Weighted fields merge bit-exactly: when either side is weighted the
// output is weighted, with the plain side contributing unit weights (see
// weightedView). Merging a zero-value accumulator with a weighted result
// r reproduces r's float fields exactly (0 + x is exact in IEEE 754),
// which is what lets chunked campaigns fold weighted checkpoints
// bit-identically to an uninterrupted run. Note float addition is not
// associative in general — campaign code must fold chunks in a fixed
// order, as internal/jobs does.
//
// Nil maps and slices stay nil when both inputs lack them, so merging
// zero-value results compares DeepEqual to a fresh zero value.
func Merge(a, b Result) Result {
	out := a
	out.Trials += b.Trials
	out.Failures += b.Failures
	out.Partial = a.Partial || b.Partial
	out.TargetMet = a.TargetMet || b.TargetMet
	out.Err = a.Err
	if out.Err == nil {
		out.Err = b.Err
	}
	long, short := a.FailuresByYear, b.FailuresByYear
	if len(short) > len(long) {
		long, short = short, long
	}
	out.FailuresByYear = append([]int(nil), long...)
	for i := range out.FailuresByYear {
		switch {
		case i < len(short):
			out.FailuresByYear[i] += short[i]
		case len(short) > 0:
			out.FailuresByYear[i] += short[len(short)-1]
		}
	}
	if a.Weighted || b.Weighted {
		aw, bw := a.weightedView(), b.weightedView()
		out.Weighted = true
		out.FailWeight = aw.FailWeight + bw.FailWeight
		out.FailWeightSq = aw.FailWeightSq + bw.FailWeightSq
		longW, shortW := aw.FailWeightByYear, bw.FailWeightByYear
		if len(shortW) > len(longW) {
			longW, shortW = shortW, longW
		}
		out.FailWeightByYear = append([]float64(nil), longW...)
		for i := range out.FailWeightByYear {
			switch {
			case i < len(shortW):
				out.FailWeightByYear[i] += shortW[i]
			case len(shortW) > 0:
				out.FailWeightByYear[i] += shortW[len(shortW)-1]
			}
		}
	}
	// Rebuild CauseCounts only when at least one side carries it:
	// unconditional rebuilding used to hand a merge of empty results a
	// non-nil empty map, making it compare unequal to a fresh zero value.
	if a.CauseCounts != nil || b.CauseCounts != nil {
		out.CauseCounts = make(map[string]int, len(a.CauseCounts)+len(b.CauseCounts))
		for k, v := range a.CauseCounts {
			out.CauseCounts[k] += v
		}
		for k, v := range b.CauseCounts {
			out.CauseCounts[k] += v
		}
	}
	// ScenarioStats are additive counters; key-wise float addition with
	// the same nil-in/nil-out contract as CauseCounts, so plain-run merges
	// stay DeepEqual to fresh zero values and chunked scenario campaigns
	// fold deterministically (jobs folds chunks in a fixed order).
	if a.ScenarioStats != nil || b.ScenarioStats != nil {
		out.ScenarioStats = make(map[string]float64, len(a.ScenarioStats)+len(b.ScenarioStats))
		for k, v := range a.ScenarioStats {
			out.ScenarioStats[k] += v
		}
		for k, v := range b.ScenarioStats {
			out.ScenarioStats[k] += v
		}
	}
	// Forensics merge only when at least one side carries it, so a merge of
	// forensics-free results keeps nil fields (and DeepEqual-based golden
	// comparisons intact).
	if a.Breakdown != nil || b.Breakdown != nil {
		out.Breakdown = make(map[string]int, len(a.Breakdown)+len(b.Breakdown))
		for k, v := range a.Breakdown {
			out.Breakdown[k] += v
		}
		for k, v := range b.Breakdown {
			out.Breakdown[k] += v
		}
	}
	if len(a.Exemplars)+len(b.Exemplars) > 0 {
		out.Exemplars = make([]Forensic, 0, len(a.Exemplars)+len(b.Exemplars))
		out.Exemplars = append(out.Exemplars, a.Exemplars...)
		out.Exemplars = append(out.Exemplars, b.Exemplars...)
	} else {
		out.Exemplars = nil
	}
	return out
}

// RunAdaptive accumulates trials in batches until the failure target or
// the trial cap is hit. Batch b runs the trials of opt.Seed that follow
// batches 0..b-1, so the trials drawn are those of one long run.
func RunAdaptive(opt AdaptiveOptions, pol Policy) Result {
	return RunAdaptiveContext(context.Background(), opt, pol)
}

// RunAdaptiveContext is RunAdaptive under a context: cancellation stops
// the batch loop and returns the trials accumulated so far as a Result
// marked Partial.
func RunAdaptiveContext(ctx context.Context, opt AdaptiveOptions, pol Policy) Result {
	opt = opt.withDefaults()
	var total Result
	total.Policy = pol.name()
	years := int(math.Ceil(opt.LifetimeHours / fault.HoursPerYear))
	total.FailuresByYear = make([]int, years)
	var scrubsSoFar int64
	start := time.Now()
	for total.Trials < opt.MaxTrials && total.Failures < opt.TargetFailures {
		if err := ctx.Err(); err != nil {
			total.Partial = true
			total.Err = err
			break
		}
		bo := opt.Options
		bo.Trials = opt.BatchTrials
		if remaining := opt.MaxTrials - total.Trials; bo.Trials > remaining {
			bo.Trials = remaining
		}
		if bo.Trials <= 0 {
			// A batch of no trials would never advance the run.
			break
		}
		// The batch continues the trial sequence of opt.Seed, so the
		// result does not depend on BatchTrials.
		bo.Seed = SeedAt(opt.Seed, uint64(total.Trials))
		var batchScrubs int64
		if opt.Progress != nil {
			// Rebase per-batch snapshots so the hook sees one continuous
			// run: totals accumulated so far plus this batch's progress,
			// against the adaptive trial cap. Intermediate batch-final
			// snapshots are demoted to non-final.
			doneTrials, doneFailures := total.Trials, total.Failures
			baseScrubs := scrubsSoFar
			bo.Progress = func(p Progress) {
				batchScrubs = p.ScrubPasses
				p.TrialsDone += doneTrials
				p.TrialsTarget = opt.MaxTrials
				p.Failures += doneFailures
				p.ScrubPasses += baseScrubs
				p.Elapsed = time.Since(start)
				p.Done = false
				opt.Progress(p)
			}
		}
		r := RunContext(ctx, bo, pol)
		scrubsSoFar += batchScrubs
		total = Merge(total, r)
		total.Policy = pol.name()
		if r.Partial {
			break
		}
	}
	// Converged vs gave up: reaching MaxTrials with too few failures
	// used to be indistinguishable from hitting the target.
	total.TargetMet = total.Failures >= opt.TargetFailures
	if len(total.Exemplars) > opt.MaxExemplars {
		// Batches arrive in batch order and each batch's exemplars in
		// trial order, so truncation keeps the earliest captures.
		total.Exemplars = total.Exemplars[:opt.MaxExemplars]
	}
	if opt.Progress != nil {
		opt.Progress(Progress{
			Policy:       pol.name(),
			RunID:        opt.RunID,
			TrialsDone:   total.Trials,
			TrialsTarget: opt.MaxTrials,
			Failures:     total.Failures,
			ScrubPasses:  scrubsSoFar,
			Elapsed:      time.Since(start),
			Done:         true,
		})
	}
	return total
}
