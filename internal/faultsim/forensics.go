package faultsim

import (
	"fmt"
	"strings"

	"repro/internal/ecc"
	"repro/internal/fault"
)

// Forensic is a post-mortem record of one uncorrectable trial: enough to
// replay the trial deterministically (BaseSeed + Trial pin the exact
// fault stream) plus the live fault set and a machine-readable reason
// chain explaining which correction mechanism was defeated.
type Forensic struct {
	// Policy is the protection scheme that failed.
	Policy string `json:"policy"`
	// RunID correlates the record with progress lines, metrics, and traces.
	RunID string `json:"runId,omitempty"`
	// BaseSeed is the Options.Seed of the run that drew the trial (for
	// importance sampling, the shifted seed of rare.Options.Engine).
	// Replaying requires this exact seed.
	BaseSeed int64 `json:"baseSeed"`
	// Trial is the trial's index in that run; it drew its lifetime from
	// the RNG stream of (BaseSeed, Trial).
	Trial int `json:"trial"`
	// FailureHours is when the fatal fault arrived.
	FailureHours float64 `json:"failureHours"`
	// Cause is the class of the proximate-cause fault.
	Cause string `json:"cause"`
	// Mode is the fault-mode combination key of the live set at failure
	// (the FailureBreakdown bucket this trial fell into).
	Mode string `json:"mode"`
	// Faults is the full live fault set at the moment of failure.
	Faults []fault.Fault `json:"faults"`
	// Summary renders each live fault for humans.
	Summary []string `json:"summary"`
	// Reasons is the machine-readable reason chain: scheme-level codes
	// from ecc.Explain plus engine-level sparing/TSV codes.
	Reasons []ecc.Reason `json:"reasons"`
}

// String renders the record in one line for logs.
func (f Forensic) String() string {
	return fmt.Sprintf("%s trial=%d mode=%s cause=%s at %.0fh (%d live faults, %d reasons)",
		f.Policy, f.Trial, f.Mode, f.Cause, f.FailureHours, len(f.Faults), len(f.Reasons))
}

// numClasses spans fault.Bit..fault.AddrTSV.
const numClasses = int(fault.AddrTSV) + 1

// modeKey buckets a live fault set by its class combination with
// multiplicity, in class order: "bank", "row+bank", "bit*2+data-tsv".
func modeKey(live []fault.Fault) string {
	var counts [numClasses]int
	for _, f := range live {
		if int(f.Class) < numClasses {
			counts[f.Class]++
		}
	}
	var b strings.Builder
	for c := 0; c < numClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(fault.Class(c).String())
		if counts[c] > 1 {
			fmt.Fprintf(&b, "*%d", counts[c])
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// captureForensic builds the record for a trial that ts has just run to
// failure: its live fault set and its sparing/TSV state are the trial's
// at the moment of failure. It runs off the zero-allocation path (only
// when Options.Forensics is set, after a trial has already failed), so it
// may allocate freely.
func captureForensic(opt Options, pol Policy, ts *trialState, trial int, when float64, cause fault.Class) Forensic {
	live := ts.liveFaults()
	fx := Forensic{
		Policy:       pol.name(),
		RunID:        opt.RunID,
		BaseSeed:     opt.Seed,
		Trial:        trial,
		FailureHours: when,
		Cause:        cause.String(),
		Mode:         modeKey(live),
		Faults:       append([]fault.Fault(nil), live...),
	}
	fx.Summary = make([]string, len(live))
	for i, f := range live {
		fx.Summary[i] = f.String()
	}
	fx.Reasons = ecc.Explain(pol.Predicate, live)
	// Engine-level reasons: the predicates cannot see the sparing and
	// TSV-repair state, so the engine appends what it knows.
	if ts.tsvUnrepaired > 0 {
		fx.Reasons = append(fx.Reasons, ecc.Reason{
			Code:   ecc.ReasonTSVSwapOverflow,
			Detail: fmt.Sprintf("%d TSV fault(s) arrived after the stand-by budget was exhausted", ts.tsvUnrepaired),
		})
	}
	if ts.sparer != nil {
		if rc, ok := ts.sparer.(interface {
			RejectCounts() (footprint, budget int)
		}); ok {
			fp, budget := rc.RejectCounts()
			if budget > 0 {
				fx.Reasons = append(fx.Reasons, ecc.Reason{
					Code:   ecc.ReasonDDSBankSpares,
					Detail: fmt.Sprintf("%d sparing offer(s) rejected: spare banks exhausted", budget),
				})
			}
			if fp > 0 {
				fx.Reasons = append(fx.Reasons, ecc.Reason{
					Code:   ecc.ReasonDDSFootprint,
					Detail: fmt.Sprintf("%d sparing offer(s) rejected: footprint spans multiple banks", fp),
				})
			}
		}
	}
	return fx
}

// ReplayTrial re-executes trial `trial` of the run seeded opt.Seed under
// opt and pol, and returns its forensic record. ok is false when the
// replayed trial does not fail (wrong seed or trial coordinates, or
// changed options). Every trial draws from its own stream, so replay
// draws this one lifetime through a fresh arrival source (opt.NewArrivals,
// or the Poisson sampler) and nothing before it.
func ReplayTrial(opt Options, pol Policy, trial int) (Forensic, bool) {
	opt = opt.withDefaults()
	buf := drawLifetime(newTrialRand(), opt.arrivals(), opt.Seed, trial, opt.LifetimeHours, nil)
	if len(buf) == 0 {
		return Forensic{}, false
	}
	ts := newTrialState(opt.Config, pol, opt.ScrubIntervalHours)
	when, cause := ts.run(buf)
	if when < 0 {
		return Forensic{}, false
	}
	return captureForensic(opt, pol, ts, trial, when, cause), true
}

// ReplayForensic replays an exemplar recorded by a previous run: opt must
// match the original run's configuration (rates, geometry, lifetime,
// scrub); the exemplar's own seed coordinates override opt.Seed.
func ReplayForensic(opt Options, pol Policy, ex Forensic) (Forensic, bool) {
	opt.Seed = ex.BaseSeed
	return ReplayTrial(opt, pol, ex.Trial)
}
