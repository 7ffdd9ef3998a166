// Package citadel is a from-scratch reproduction of "Citadel: Efficiently
// Protecting Stacked Memory from Large Granularity Failures" (Nair, Roberts,
// Qureshi — MICRO 2014).
//
// Citadel lets a 3D-stacked DRAM keep each cache line in a single bank —
// preserving bank-level parallelism and activation power — while tolerating
// large-granularity failures (columns, rows, banks, and TSVs). It combines
// three mechanisms:
//
//   - TSV-SWAP: runtime repair of faulty through-silicon vias using
//     stand-by TSVs carved from the existing data-TSV pool.
//   - 3DP (Tri-Dimensional Parity): CRC-32 detection per line plus XOR
//     parity in three orthogonal dimensions for correction.
//   - DDS (Dynamic Dual-granularity Sparing): permanent faults are spared
//     at row or bank granularity to stop fault accumulation.
//
// The package offers three entry points:
//
//   - SimulateReliability runs FaultSim-style Monte Carlo lifetime studies
//     for any protection Scheme (the paper's Figures 4, 9, 14, 18, 19).
//   - SimulatePerformance runs the queueing performance/power model over
//     synthetic SPEC/PARSEC/BioBench workloads (Figures 5, 13, 15, 16).
//   - NewController builds a bit-accurate functional model of the Citadel
//     pipeline (CRC → TSV-SWAP → 3DP → DDS) with fault injection.
package citadel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/obs/trace"
	"repro/internal/rare"
	"repro/internal/scenario"
	"repro/internal/sparing"
	"repro/internal/stack"
)

// Config is the stacked-memory geometry (see DefaultConfig for the paper's
// Table II baseline).
type Config = stack.Config

// DefaultConfig returns the paper's baseline system: two 8 GB stacks of
// eight 8 Gb data dies plus one metadata die each.
func DefaultConfig() Config { return stack.DefaultConfig() }

// Striping selects the cache-line data layout.
type Striping = stack.Striping

// Striping layouts (paper §II-D).
const (
	SameBank       = stack.SameBank
	AcrossBanks    = stack.AcrossBanks
	AcrossChannels = stack.AcrossChannels
)

// FITRates holds per-die failure rates; Table1Rates reproduces the paper's
// Table I for 8 Gb dies.
type FITRates = fault.Rates

// Table1Rates returns the paper's Table I failure rates (no TSV faults;
// use WithTSV for the sensitivity sweep).
func Table1Rates() FITRates { return fault.Table1() }

// Scheme names a protection scheme in the scenario registry
// (internal/scenario). The constants are the paper's schemes under the
// names its figures print; any other registered name, such as
// "two-tier-replication", is a Scheme too.
type Scheme string

const (
	// SchemeNone is the unprotected baseline.
	SchemeNone Scheme = "None"
	// SchemeSymbol8SameBank: strong 8-bit symbol code, line in one bank.
	SchemeSymbol8SameBank Scheme = "Symbol8/Same-Bank"
	// SchemeSymbol8AcrossBanks: symbol code, line striped across the banks
	// of one channel.
	SchemeSymbol8AcrossBanks Scheme = "Symbol8/Across-Banks"
	// SchemeSymbol8AcrossChannels: symbol code, line striped across
	// channels (the ChipKill-like baseline of Figures 14/18).
	SchemeSymbol8AcrossChannels Scheme = "Symbol8/Across-Channels"
	// Scheme1DP: parity bank only.
	Scheme1DP Scheme = "1DP"
	// Scheme2DP: Dimensions 1+2.
	Scheme2DP Scheme = "2DP"
	// Scheme3DP: full Tri-Dimensional Parity.
	Scheme3DP Scheme = "3DP"
	// Scheme3DPDDS: 3DP plus Dynamic Dual-granularity Sparing.
	Scheme3DPDDS Scheme = "3DP+DDS"
	// SchemeCitadel: TSV-SWAP + 3DP + DDS (the full proposal).
	SchemeCitadel Scheme = "Citadel"
	// SchemeBCH6EC7ED: 6-bit-correct/7-bit-detect BCH per line (§VIII-F).
	SchemeBCH6EC7ED Scheme = "BCH-6EC7ED"
	// SchemeRAID5: RAID-5-style parity across channels (§VIII-F).
	SchemeRAID5 Scheme = "RAID-5"
	// Scheme2DECC: prior-work 2D error coding over 32x32 cell tiles
	// (§VIII-E); small-granularity protection only.
	Scheme2DECC Scheme = "2D-ECC"
)

// String returns the registry name.
func (s Scheme) String() string { return string(s) }

// Schemes lists the paper's schemes in figure order.
func Schemes() []Scheme {
	return []Scheme{
		SchemeNone, SchemeSymbol8SameBank, SchemeSymbol8AcrossBanks, SchemeSymbol8AcrossChannels,
		Scheme1DP, Scheme2DP, Scheme3DP, Scheme3DPDDS, SchemeCitadel,
		SchemeBCH6EC7ED, SchemeRAID5, Scheme2DECC,
	}
}

// buildPolicy constructs the engine policy of a named scheme through the
// scenario registry, optionally forcing TSV-SWAP on (as the paper does
// for all systems after §V-D). A scheme that natively uses TSV-SWAP
// (Citadel) keeps its plain name; forcing it onto any other scheme
// appends "+TSV-Swap", exactly as the pre-registry hand-wiring named
// its policies.
func buildPolicy(name string, cfg Config, params scenario.Params, tsvSwap bool) (faultsim.Policy, error) {
	p, err := scenario.BuildScheme(name, cfg, params)
	if err != nil {
		return faultsim.Policy{}, err
	}
	native := p.UseTSVSwap
	if tsvSwap {
		p.UseTSVSwap = true
	}
	if p.UseTSVSwap && !native {
		p.Name += "+TSV-Swap"
	}
	return p, nil
}

// ReliabilityOptions configures a Monte Carlo reliability study.
type ReliabilityOptions struct {
	// Config is the geometry (default: DefaultConfig).
	Config Config
	// Rates are the FIT rates (default: Table1Rates).
	Rates FITRates
	// Trials is the Monte Carlo trial count (default 100000).
	Trials int
	// LifetimeYears is the evaluated lifetime (default 7).
	LifetimeYears float64
	// ScrubIntervalHours is the scrub period (default 12).
	ScrubIntervalHours float64
	// TSVSwap forces TSV-SWAP on for every scheme (the paper enables it
	// for all systems after §V-D).
	TSVSwap bool
	// Seed makes runs reproducible. See DESIGN.md "Reproducibility
	// contract": equal seeds give bit-identical results on any host and
	// at any Workers.
	Seed int64
	// Workers bounds parallelism; the engine clamps it to
	// [1, GOMAXPROCS] (0 or negative selects GOMAXPROCS). It does not
	// change the result.
	Workers int
	// Progress, when non-nil, receives periodic run snapshots plus a
	// final one with Done set (see faultsim.Options.Progress).
	Progress func(RunProgress)
	// ProgressInterval throttles Progress callbacks (default 1s).
	ProgressInterval time.Duration
	// RunID correlates progress snapshots, forensic exemplars, metrics,
	// and traces from one logical run.
	RunID string
	// Forensics enables failure forensics: every uncorrectable trial is
	// bucketed into Result.Breakdown by fault-mode combination, and the
	// first MaxExemplars failures are captured as replayable Forensic
	// records with machine-readable reason chains.
	Forensics bool
	// MaxExemplars bounds the captured exemplars (default 8 when
	// Forensics is set).
	MaxExemplars int
	// Trace, when non-nil, records sampled per-trial spans and failure
	// instants into the flight recorder.
	Trace *trace.Recorder
	// RareEvent importance-samples the run (internal/rare): the Poisson
	// arrival source is biased toward large-granularity classes and each
	// failing trial is unbiased by its likelihood ratio, so
	// ~1e-6-and-below tails resolve in orders of magnitude fewer trials.
	// The returned Result is Weighted. It runs on the same executor as a
	// plain run, so Forensics (replayable exemplars), Trace and adaptive
	// targets compose with it; only non-Poisson fault models are rejected
	// (see Validate).
	RareEvent bool
	// BiasFactor is the rare-event rate inflation (>= 1; 0 selects
	// DefaultBiasFactor). Only meaningful with RareEvent.
	BiasFactor float64
	// FaultModel names the registered arrival-process plugin ("" selects
	// scenario.DefaultFaultModel, the Poisson FIT-rate process — bit-
	// identical to runs predating the field). Every engine path, forensic
	// replay included, draws from it. Only the Poisson-only estimators
	// reject other models: importance sampling (RareEvent) biases Poisson
	// rates, and multilevel splitting resamples memoryless Poisson
	// suffixes.
	FaultModel string
	// ScenarioParams are plugin knobs shared by the scheme and fault-model
	// plugins (flat namespace; keys validated against the union of both
	// plugins' declared parameters). Nil runs every plugin at its
	// documented defaults.
	ScenarioParams map[string]float64
}

// DefaultBiasFactor is the rare-event engine's default rate inflation.
const DefaultBiasFactor = rare.DefaultBiasFactor

// Result is the outcome of a reliability run.
type Result = faultsim.Result

// RunProgress is a point-in-time snapshot of a reliability run.
type RunProgress = faultsim.Progress

// withDefaults fills zero fields. Trials and ScrubIntervalHours are
// filled here to match their doc comments; faultsim.Options.withDefaults
// applies the same values and remains the single source of truth for
// callers that bypass this package.
func (o ReliabilityOptions) withDefaults() ReliabilityOptions {
	if o.Config.Stacks == 0 {
		o.Config = DefaultConfig()
	}
	zero := FITRates{}
	if o.Rates == zero {
		o.Rates = Table1Rates()
	}
	if o.Trials == 0 {
		o.Trials = 100000
	}
	if o.LifetimeYears == 0 {
		o.LifetimeYears = 7
	}
	if o.ScrubIntervalHours == 0 {
		o.ScrubIntervalHours = faultsim.DefaultScrubIntervalHours
	}
	return o
}

// engineOptions converts to the internal engine options.
func (o ReliabilityOptions) engineOptions() faultsim.Options {
	return faultsim.Options{
		Config:             o.Config,
		Rates:              o.Rates,
		Trials:             o.Trials,
		LifetimeHours:      o.LifetimeYears * fault.HoursPerYear,
		ScrubIntervalHours: o.ScrubIntervalHours,
		Seed:               o.Seed,
		Workers:            o.Workers,
		Progress:           o.Progress,
		ProgressInterval:   o.ProgressInterval,
		RunID:              o.RunID,
		Forensics:          o.Forensics,
		MaxExemplars:       o.MaxExemplars,
		Trace:              o.Trace,
	}
}

// Validate reports why a run of scheme under o cannot execute, or nil.
// It is the one home of every rejected setting and feature combination:
//   - a negative Trials (zero selects the default);
//   - an unknown scheme, fault model or scenario parameter, or a parameter
//     value the scheme or fault-model plugin refuses;
//   - a BiasFactor without RareEvent, or below 1;
//   - a Poisson-only estimator over another fault model: importance
//     sampling (RareEvent) biases Poisson rates, and multilevel splitting
//     (split) resamples memoryless Poisson suffixes.
//
// citadel-sim, POST /api/v1/reliability and submitted jobs call it before
// running, and every Simulate entry point applies it too. Forensics,
// Trace and adaptive targets compose with every engine.
func (o ReliabilityOptions) Validate(scheme Scheme, split bool) error {
	_, _, err := o.withDefaults().setup(scheme, split)
	return err
}

// setup validates a run (see Validate) and assembles it: the scheme
// plugin builds the policy, the fault-model plugin the arrival process,
// and RareEvent swaps in the importance-sampled source of rare.Options.
// opts must already have defaults applied.
func (o ReliabilityOptions) setup(scheme Scheme, split bool) (pol faultsim.Policy, eo faultsim.Options, err error) {
	params := scenario.Params(o.ScenarioParams)
	if err = scenario.ValidateParams(string(scheme), o.FaultModel, params); err != nil {
		return pol, eo, err
	}
	switch {
	case o.Trials < 0:
		return pol, eo, fmt.Errorf("citadel: trials must be non-negative, got %d", o.Trials)
	case o.BiasFactor != 0 && !o.RareEvent:
		return pol, eo, fmt.Errorf("citadel: biasFactor requires rareEvent")
	case o.BiasFactor != 0 && o.BiasFactor < 1:
		return pol, eo, fmt.Errorf("citadel: biasFactor must be >= 1, got %g", o.BiasFactor)
	case (o.RareEvent || split) && o.FaultModel != "" && o.FaultModel != scenario.DefaultFaultModel:
		return pol, eo, fmt.Errorf("citadel: rare-event sampling and splitting support only the %q fault model, not %q",
			scenario.DefaultFaultModel, o.FaultModel)
	}
	if pol, err = buildPolicy(string(scheme), o.Config, params, o.TSVSwap); err != nil {
		return pol, eo, err
	}
	eo = o.engineOptions()
	if eo.NewArrivals, err = scenario.BuildFaultModel(o.FaultModel, o.Config, o.Rates, params); err != nil {
		return pol, eo, err
	}
	if o.RareEvent && !split {
		eo = rare.Options{Options: eo, BiasFactor: o.BiasFactor}.Engine()
	}
	return pol, eo, nil
}

// resultOrErr folds a configuration error into a zero-trial Result for
// the Scheme-typed entry points, whose signatures predate error returns.
func resultOrErr(scheme Scheme, res Result, err error) Result {
	if err != nil {
		return Result{Policy: string(scheme), Err: err, Partial: true}
	}
	return res
}

// SimulateScenarioReliability runs a reliability study for a registered
// scheme/fault-model pair selected by name; it cannot be interrupted
// (see SimulateScenarioReliabilityContext).
func SimulateScenarioReliability(opts ReliabilityOptions, schemeName string) (Result, error) {
	return SimulateScenarioReliabilityContext(context.Background(), opts, schemeName)
}

// SimulateScenarioReliabilityContext is the core every reliability path
// runs through: the scheme plugin builds the policy, the fault-model
// plugin builds the arrival process, and the engine simulates them —
// importance-sampled when opts.RareEvent is set. Errors are configuration
// errors (see Validate); a cancelled context still returns a partial
// Result with a nil error.
func SimulateScenarioReliabilityContext(ctx context.Context, opts ReliabilityOptions, schemeName string) (Result, error) {
	pol, eo, err := opts.withDefaults().setup(Scheme(schemeName), false)
	if err != nil {
		return Result{}, err
	}
	return faultsim.RunContext(ctx, eo, pol), nil
}

// SimulateScenarioReliabilityAdaptive is the adaptive (failure-count-
// targeted) variant of SimulateScenarioReliability.
func SimulateScenarioReliabilityAdaptive(opts ReliabilityOptions, schemeName string, targetFailures, maxTrials int) (Result, error) {
	return SimulateScenarioReliabilityAdaptiveContext(context.Background(), opts, schemeName, targetFailures, maxTrials)
}

// SimulateScenarioReliabilityAdaptiveContext adds trials in batches until
// targetFailures or maxTrials, with the scheme and arrival process
// resolved through the scenario registry. With opts.RareEvent every batch
// is importance-sampled and the Result is Weighted; the target counts
// failing trials. Zero targetFailures or maxTrials selects the default
// (see faultsim.AdaptiveOptions); a negative one is an error.
func SimulateScenarioReliabilityAdaptiveContext(ctx context.Context, opts ReliabilityOptions, schemeName string, targetFailures, maxTrials int) (Result, error) {
	if targetFailures < 0 || maxTrials < 0 {
		return Result{}, fmt.Errorf("citadel: targetFailures and maxTrials must be non-negative, got %d and %d", targetFailures, maxTrials)
	}
	pol, eo, err := opts.withDefaults().setup(Scheme(schemeName), false)
	if err != nil {
		return Result{}, err
	}
	return faultsim.RunAdaptiveContext(ctx, faultsim.AdaptiveOptions{
		Options:        eo,
		TargetFailures: targetFailures,
		MaxTrials:      maxTrials,
	}, pol), nil
}

// SimulateReliability estimates the probability of system failure for one
// scheme under the given options; it cannot be interrupted (see
// SimulateReliabilityContext).
func SimulateReliability(opts ReliabilityOptions, scheme Scheme) Result {
	return SimulateReliabilityContext(context.Background(), opts, scheme)
}

// SimulateReliabilityContext estimates the probability of system failure
// for one scheme. Cancelling ctx stops the Monte Carlo workers within
// one trial batch; the completed trials are returned as a Result marked
// Partial (the estimate stays unbiased, just wider). With
// opts.RareEvent the trial budget runs through the importance-sampled
// engine instead and the Result comes back Weighted. A configuration
// error (see Validate) comes back as a zero-trial Result carrying it.
func SimulateReliabilityContext(ctx context.Context, opts ReliabilityOptions, scheme Scheme) Result {
	res, err := SimulateScenarioReliabilityContext(ctx, opts, string(scheme))
	return resultOrErr(scheme, res, err)
}

// CompareReliability runs several schemes under identical options.
func CompareReliability(opts ReliabilityOptions, schemes ...Scheme) []Result {
	return CompareReliabilityContext(context.Background(), opts, schemes...)
}

// CompareReliabilityContext runs several schemes under identical options.
// Once ctx is cancelled, the in-flight scheme returns a partial Result
// and the remaining schemes return immediately with zero trials, all
// marked Partial.
func CompareReliabilityContext(ctx context.Context, opts ReliabilityOptions, schemes ...Scheme) []Result {
	out := make([]Result, len(schemes))
	for i, s := range schemes {
		out[i] = SimulateReliabilityContext(ctx, opts, s)
	}
	return out
}

// SimulateReliabilityAdaptive adds trials in batches until targetFailures
// failures are observed (tight relative confidence on rare-event schemes
// like Citadel) or maxTrials is reached — the paper's "more trials for
// schemes that show lower failure rates" methodology (§III-B).
func SimulateReliabilityAdaptive(opts ReliabilityOptions, scheme Scheme, targetFailures, maxTrials int) Result {
	return SimulateReliabilityAdaptiveContext(context.Background(), opts, scheme, targetFailures, maxTrials)
}

// SimulateReliabilityAdaptiveContext is SimulateReliabilityAdaptive under
// a context: cancellation stops the batch loop and returns the trials
// accumulated so far as a Result marked Partial.
func SimulateReliabilityAdaptiveContext(ctx context.Context, opts ReliabilityOptions, scheme Scheme, targetFailures, maxTrials int) Result {
	res, err := SimulateScenarioReliabilityAdaptiveContext(ctx, opts, string(scheme), targetFailures, maxTrials)
	return resultOrErr(scheme, res, err)
}

// SplitResult is a multilevel-splitting reliability estimate — the
// cross-validation counterpart of the importance-sampled engine.
type SplitResult = rare.SplitResult

// SimulateReliabilitySplit estimates failure probability by multilevel
// splitting on the number of simultaneously live faults, using
// opts.Trials trajectories per stage at the given levels (nil selects
// the default [1, 2]). It shares no bias machinery with the
// importance-sampled path, so agreement between the two is a meaningful
// check; it cannot be interrupted (see SimulateReliabilitySplitContext).
func SimulateReliabilitySplit(opts ReliabilityOptions, scheme Scheme, levels []int) SplitResult {
	return SimulateReliabilitySplitContext(context.Background(), opts, scheme, levels)
}

// SimulateReliabilitySplitContext is SimulateReliabilitySplit under a
// context: cancellation abandons the run and returns a SplitResult
// marked Partial, as does a configuration error (see Validate).
// RareEvent and BiasFactor do not apply to splitting.
func SimulateReliabilitySplitContext(ctx context.Context, opts ReliabilityOptions, scheme Scheme, levels []int) SplitResult {
	pol, eo, err := opts.withDefaults().setup(scheme, true)
	if err != nil {
		return SplitResult{Policy: string(scheme), Err: err, Partial: true}
	}
	return rare.RunSplitContext(ctx, rare.SplitOptions{Options: eo, Levels: levels}, pol)
}

// FaultCensus tallies permanent-fault anatomy over lifetimes: the bimodal
// rows-per-faulty-bank histogram (Figure 17) and the failed-banks-per-system
// distribution (Table III).
type FaultCensus = faultsim.Census

// RunFaultCensus performs the census behind Figure 17 and Table III.
func RunFaultCensus(opts ReliabilityOptions) FaultCensus {
	return RunFaultCensusContext(context.Background(), opts)
}

// RunFaultCensusContext is RunFaultCensus under a context: a cancelled
// census returns the tallies gathered so far, marked Partial.
func RunFaultCensusContext(ctx context.Context, opts ReliabilityOptions) FaultCensus {
	opts = opts.withDefaults()
	return faultsim.RunCensusContext(ctx, opts.engineOptions(), opts.TSVSwap)
}

// StorageOverhead reports Citadel's storage budget (paper §VII-E): the
// metadata-die fraction, the parity-bank fraction, and the on-chip SRAM
// bytes for Dimension-2/3 parity plus the DDS tables.
type StorageOverhead struct {
	MetadataFraction   float64 // extra DRAM for the metadata die
	ParityBankFraction float64 // one data bank dedicated to Dim-1 parity
	SRAMBytes          int     // on-chip parity rows + RRT/BRT
}

// Total returns the total DRAM storage overhead fraction.
func (s StorageOverhead) Total() float64 { return s.MetadataFraction + s.ParityBankFraction }

// ComputeStorageOverhead evaluates the overhead accounting for a geometry.
func ComputeStorageOverhead(cfg Config) StorageOverhead {
	dim23Rows := (cfg.DataDies + cfg.ECCDies) + cfg.BanksPerDie // 9 + 8 rows
	return StorageOverhead{
		MetadataFraction:   float64(cfg.ECCDies) / float64(cfg.DataDies),
		ParityBankFraction: 1 / float64(cfg.DataDies*cfg.BanksPerDie),
		SRAMBytes:          dim23Rows*cfg.RowBytes + sparing.OverheadBits(cfg)/8,
	}
}
