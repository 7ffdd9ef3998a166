package faultsim

import (
	"repro/internal/fault"
	"repro/internal/stack"
)

// TrialRunner exposes the engine's per-trial state machine — scrubbing,
// TSV-SWAP, sparing, incremental correctability — to out-of-package
// estimators (the multilevel-splitting oracle in internal/rare's tests)
// without exporting the pooled trialState internals. One runner serves
// many trials; like the in-package workers it is not safe for concurrent
// use. Both methods run the engine's one arrival loop, so their
// observable statistics (verdict, failure time, proximate cause, scrub
// tally) are bit-identical to the Monte Carlo loop's for the same fault
// list.
type TrialRunner struct {
	ts *trialState
}

// NewTrialRunner builds a runner for one policy. scrubHours zero selects
// the default 12-hour interval.
func NewTrialRunner(cfg stack.Config, pol Policy, scrubHours float64) *TrialRunner {
	if scrubHours == 0 {
		scrubHours = DefaultScrubIntervalHours
	}
	return &TrialRunner{ts: newTrialState(cfg, pol, scrubHours)}
}

// Run executes one trial over a time-sorted fault list; it returns the
// failure time in hours (negative when the system survives) and the
// class of the fault whose arrival made the state uncorrectable.
func (t *TrialRunner) Run(faults []fault.Fault) (float64, fault.Class) {
	return t.ts.run(faults)
}

// RunToLevel runs a trial only until the count of simultaneously live
// faults first reaches level (>= 1) — the importance function of
// multilevel splitting. It returns the crossing arrival's index into
// faults and its time, or crossIdx -1 with failed set when the state went
// uncorrectable at an arrival before any crossing (possible when level
// exceeds the live count a failing arrival needs, e.g. a lone bank fault
// under a weak scheme), or crossIdx -1 and failed false when the list
// ends without either.
//
// Crucially it never examines the fault list past the crossing: a
// splitting stage must classify a trajectory by its prefix alone, so
// that resampling the suffix later is conditionally independent.
// Checking the suffix here (say, whether the whole trial fails) and
// letting that influence stage bookkeeping double-counts failure mass —
// exactly the bias the estimator exists to avoid. The crossing arrival
// itself is not evaluated for correctability; the next stage's replay
// evaluates it.
func (t *TrialRunner) RunToLevel(faults []fault.Fault, level int) (crossIdx int, crossHours float64, failed bool) {
	i, bad := t.ts.advance(faults, level)
	switch {
	case bad:
		return -1, 0, true
	case i < 0:
		return -1, 0, false
	}
	return i, faults[i].Hours, false
}
