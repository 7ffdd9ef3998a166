package faultsim

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
