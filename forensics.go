package citadel

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/faultsim"
	"repro/internal/scenario"
)

// Forensic is a replayable post-mortem record of one uncorrectable trial:
// seed coordinates, the live fault set at failure, and a machine-readable
// reason chain naming the correction mechanisms that were defeated.
type Forensic = faultsim.Forensic

// Reason is one entry of a forensic reason chain.
type Reason = ecc.Reason

// ForensicsReport is the self-contained failure-forensics document written
// by `citadel-sim -forensics out.json` and replayed by
// `citadel-repro -forensics out.json`: it carries both the forensic records
// and every run parameter needed to reproduce them — rates, fault model,
// scenario parameters and importance-sampling bias included, so any run
// citadel-sim can make also replays. Geometry is the default.
type ForensicsReport struct {
	RunID              string             `json:"runId,omitempty"`
	Scheme             string             `json:"scheme"`
	Seed               int64              `json:"seed"`
	Trials             int                `json:"trials"`
	LifetimeYears      float64            `json:"lifetimeYears"`
	ScrubIntervalHours float64            `json:"scrubIntervalHours"`
	TSVFIT             float64            `json:"tsvFit"`
	TSVSwap            bool               `json:"tsvSwap"`
	Rates              *FITRates          `json:"rates,omitempty"`
	FaultModel         string             `json:"faultModel,omitempty"`
	ScenarioParams     map[string]float64 `json:"scenarioParams,omitempty"`
	RareEvent          bool               `json:"rareEvent,omitempty"`
	BiasFactor         float64            `json:"biasFactor,omitempty"`
	Failures           int                `json:"failures"`
	Breakdown          map[string]int     `json:"breakdown,omitempty"`
	Exemplars          []Forensic         `json:"exemplars,omitempty"`
}

// NewForensicsReport assembles the report for a completed forensics run.
func NewForensicsReport(opts ReliabilityOptions, scheme Scheme, res Result) ForensicsReport {
	opts = opts.withDefaults()
	return ForensicsReport{
		RunID:              opts.RunID,
		Scheme:             string(scheme),
		Seed:               opts.Seed,
		Trials:             res.Trials,
		LifetimeYears:      opts.LifetimeYears,
		ScrubIntervalHours: opts.ScrubIntervalHours,
		TSVFIT:             opts.Rates.TSVPerDie,
		TSVSwap:            opts.TSVSwap,
		Rates:              &opts.Rates,
		FaultModel:         opts.FaultModel,
		ScenarioParams:     opts.ScenarioParams,
		RareEvent:          opts.RareEvent,
		BiasFactor:         opts.BiasFactor,
		Failures:           res.Failures,
		Breakdown:          res.Breakdown,
		Exemplars:          res.Exemplars,
	}
}

// Options reconstructs the reliability options a report's exemplars replay
// under. Reports without recorded rates use Table I with their TSV rate.
func (r ForensicsReport) Options() ReliabilityOptions {
	rates := Table1Rates().WithTSV(r.TSVFIT)
	if r.Rates != nil {
		rates = *r.Rates
	}
	return ReliabilityOptions{
		Rates:              rates,
		Trials:             r.Trials,
		LifetimeYears:      r.LifetimeYears,
		ScrubIntervalHours: r.ScrubIntervalHours,
		TSVSwap:            r.TSVSwap,
		Seed:               r.Seed,
		RunID:              r.RunID,
		FaultModel:         r.FaultModel,
		ScenarioParams:     r.ScenarioParams,
		RareEvent:          r.RareEvent,
		BiasFactor:         r.BiasFactor,
	}.withDefaults()
}

// SchemeByName resolves a registered scheme name (as recorded in a
// ForensicsReport): a paper scheme or any scenario-registry plugin.
func SchemeByName(name string) (Scheme, bool) {
	_, ok := scenario.SchemeByName(name)
	return Scheme(name), ok
}

// ReplayExemplar re-executes the exemplar's trial from its recorded seed
// coordinates under opts and scheme, through the same arrival process the
// run drew from, returning the reproduced forensic record. ok is false
// when the replayed trial does not fail — the options/scheme no longer
// match the recording — or the options do not validate.
func ReplayExemplar(opts ReliabilityOptions, scheme Scheme, ex Forensic) (Forensic, bool) {
	pol, eo, err := opts.withDefaults().setup(scheme)
	if err != nil {
		return Forensic{}, false
	}
	return faultsim.ReplayForensic(eo, pol, ex)
}

// VerifyReport replays every exemplar of a report and returns an error
// describing the first divergence (nil when all exemplars reproduce their
// recorded fault sets and verdicts exactly).
func VerifyReport(r ForensicsReport) error {
	scheme, ok := SchemeByName(r.Scheme)
	if !ok {
		return fmt.Errorf("unknown scheme %q", r.Scheme)
	}
	opts := r.Options()
	for i, ex := range r.Exemplars {
		got, ok := ReplayExemplar(opts, scheme, ex)
		if !ok {
			return fmt.Errorf("exemplar %d (%s) did not reproduce a failure", i, ex)
		}
		if err := diffForensic(got, ex); err != nil {
			return fmt.Errorf("exemplar %d diverges: %w", i, err)
		}
	}
	return nil
}

// diffForensic compares the replay-relevant fields of two records.
func diffForensic(got, want Forensic) error {
	if got.FailureHours != want.FailureHours || got.Cause != want.Cause || got.Mode != want.Mode {
		return fmt.Errorf("verdict differs: got (%.1fh %s %s), want (%.1fh %s %s)",
			got.FailureHours, got.Cause, got.Mode, want.FailureHours, want.Cause, want.Mode)
	}
	if len(got.Faults) != len(want.Faults) {
		return fmt.Errorf("fault count differs: got %d, want %d", len(got.Faults), len(want.Faults))
	}
	for i := range got.Faults {
		if got.Faults[i] != want.Faults[i] {
			return fmt.Errorf("fault %d differs: got %v, want %v", i, got.Faults[i], want.Faults[i])
		}
	}
	if len(got.Reasons) != len(want.Reasons) {
		return fmt.Errorf("reason count differs: got %v, want %v", got.Reasons, want.Reasons)
	}
	for i := range got.Reasons {
		if got.Reasons[i] != want.Reasons[i] {
			return fmt.Errorf("reason %d differs: got %v, want %v", i, got.Reasons[i], want.Reasons[i])
		}
	}
	return nil
}
