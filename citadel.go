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
//   - Simulate runs FaultSim-style Monte Carlo lifetime studies for any
//     protection Scheme (the paper's Figures 4, 9, 14, 18, 19): a fixed
//     trial budget, an adaptive run toward a failure target, or an
//     importance-sampled run for deep tails, set by ReliabilityOptions.
//     RunFaultCensus tallies the fault anatomy behind Figure 17 and
//     Table III.
//   - SimulatePerformance runs the queueing performance/power model over
//     synthetic SPEC/PARSEC/BioBench workloads (Figures 5, 13, 15, 16).
//   - NewController builds a bit-accurate functional model of the Citadel
//     pipeline (CRC → TSV-SWAP → 3DP → DDS) with fault injection.
package citadel

import (
	"context"
	"fmt"
	"math"
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
	// Trials is the Monte Carlo trial count (default 100000). In an
	// adaptive run (TargetFailures > 0) it is the batch size.
	Trials int
	// TargetFailures, when positive, makes the run adaptive: batches of
	// Trials trials are added until this many failing trials are observed
	// or MaxTrials is reached — the paper's "more trials for schemes that
	// show lower failure rates" (§III-B). Result.TargetMet tells the two
	// stops apart. Zero runs exactly Trials trials.
	TargetFailures int
	// MaxTrials caps an adaptive run (default 10 × Trials). It requires
	// TargetFailures.
	MaxTrials int
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
	// replay included, draws from it. Only importance sampling (RareEvent)
	// rejects other models: it biases Poisson rates.
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
		TargetFailures:     o.TargetFailures,
		MaxTrials:          o.MaxTrials,
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
//   - a negative Trials, TargetFailures or MaxTrials (zero selects the
//     default), or a MaxTrials without TargetFailures;
//   - a LifetimeYears that is negative, NaN or infinite, a negative or
//     NaN ScrubIntervalHours, or a negative or NaN FIT rate;
//   - a FIT rate, or under RareEvent a BiasFactor, that puts the mean
//     count of one fault class past what the Poisson sampler can draw
//     (about 708 per lifetime);
//   - an unknown scheme, fault model or scenario parameter, a NaN or
//     infinite parameter value, or one the scheme or fault-model plugin
//     refuses;
//   - a BiasFactor without RareEvent, or one below 1, NaN or infinite;
//   - importance sampling (RareEvent) over a fault model other than the
//     Poisson process whose rates it biases.
//
// citadel-sim, POST /api/v1/reliability and submitted jobs call it before
// running, and Simulate applies it too. Forensics, Trace and adaptive
// targets compose with every engine.
func (o ReliabilityOptions) Validate(scheme Scheme) error {
	_, _, err := o.withDefaults().setup(scheme)
	return err
}

// setup validates a run (see Validate) and assembles it: the scheme
// plugin builds the policy, the fault-model plugin the arrival process,
// and RareEvent swaps in the importance-sampled source of rare.Options.
// opts must already have defaults applied.
func (o ReliabilityOptions) setup(scheme Scheme) (pol faultsim.Policy, eo faultsim.Options, err error) {
	params := scenario.Params(o.ScenarioParams)
	if err = scenario.ValidateParams(string(scheme), o.FaultModel, params); err != nil {
		return pol, eo, err
	}
	switch {
	case o.Trials < 0:
		return pol, eo, fmt.Errorf("citadel: trials must be non-negative, got %d", o.Trials)
	case o.TargetFailures < 0 || o.MaxTrials < 0:
		return pol, eo, fmt.Errorf("citadel: targetFailures and maxTrials must be non-negative, got %d and %d", o.TargetFailures, o.MaxTrials)
	case o.MaxTrials != 0 && o.TargetFailures == 0:
		return pol, eo, fmt.Errorf("citadel: maxTrials requires targetFailures")
	case !(o.LifetimeYears >= 0 && o.LifetimeYears < math.Inf(1)):
		return pol, eo, fmt.Errorf("citadel: lifetimeYears must be finite and non-negative, got %g", o.LifetimeYears)
	case !(o.ScrubIntervalHours >= 0):
		return pol, eo, fmt.Errorf("citadel: scrubIntervalHours must be non-negative, got %g", o.ScrubIntervalHours)
	case o.BiasFactor != 0 && !o.RareEvent:
		return pol, eo, fmt.Errorf("citadel: biasFactor requires rareEvent")
	case o.BiasFactor != 0 && !(o.BiasFactor >= 1 && o.BiasFactor < math.Inf(1)):
		return pol, eo, fmt.Errorf("citadel: biasFactor must be finite and >= 1, got %g", o.BiasFactor)
	case o.RareEvent && o.FaultModel != "" && o.FaultModel != scenario.DefaultFaultModel:
		return pol, eo, fmt.Errorf("citadel: rare-event sampling supports only the %q fault model, not %q",
			scenario.DefaultFaultModel, o.FaultModel)
	}
	if err = o.Rates.Validate(); err != nil {
		return pol, eo, err
	}
	// The Poisson sampler cannot count past a mean of about 708 faults of
	// one class per lifetime, so reject rates, or a bias, that ask for more.
	hours := o.LifetimeYears * fault.HoursPerYear
	if err = fault.NewSampler(o.Config, o.Rates).CheckMeans(hours); err != nil {
		return pol, eo, fmt.Errorf("citadel: %w", err)
	}
	if o.RareEvent {
		bias := o.BiasFactor
		if bias == 0 {
			bias = rare.DefaultBiasFactor
		}
		if err = fault.NewSampler(o.Config, o.Rates.BiasLarge(bias)).CheckMeans(hours); err != nil {
			return pol, eo, fmt.Errorf("citadel: biasFactor %g is too large: %w", bias, err)
		}
	}
	if pol, err = buildPolicy(string(scheme), o.Config, params, o.TSVSwap); err != nil {
		return pol, eo, err
	}
	eo = o.engineOptions()
	if eo.NewArrivals, err = scenario.BuildFaultModel(o.FaultModel, o.Config, o.Rates, params); err != nil {
		return pol, eo, err
	}
	if o.RareEvent {
		eo = rare.Options{Options: eo, BiasFactor: o.BiasFactor}.Engine()
	}
	return pol, eo, nil
}

// Simulate runs a reliability study of scheme: the scheme plugin builds
// the policy, the fault-model plugin the arrival process, and the engine
// simulates them — importance-sampled when opts.RareEvent is set (the
// Result is then Weighted), and adaptive when opts.TargetFailures is
// positive. An error is a configuration error (see Validate). Cancelling
// ctx stops the workers within one trial block: the completed trials
// come back as a Result marked Partial, with a nil error and the
// cancellation cause in Result.Err. The estimate stays unbiased, just
// wider.
func Simulate(ctx context.Context, opts ReliabilityOptions, scheme Scheme) (Result, error) {
	pol, eo, err := opts.withDefaults().setup(scheme)
	if err != nil {
		return Result{}, err
	}
	return faultsim.RunContext(ctx, eo, pol), nil
}

// SimulateScenarioReliabilityContext is Simulate with the scheme named by
// a string.
//
// Deprecated: use Simulate. It remains only because the repository
// benchmark (benchmark/engine.go) calls it.
func SimulateScenarioReliabilityContext(ctx context.Context, opts ReliabilityOptions, schemeName string) (Result, error) {
	return Simulate(ctx, opts, Scheme(schemeName))
}

// FaultCensus tallies permanent-fault anatomy over lifetimes: the bimodal
// rows-per-faulty-bank histogram (Figure 17) and the failed-banks-per-system
// distribution (Table III).
type FaultCensus = faultsim.Census

// RunFaultCensus performs the census behind Figure 17 and Table III over
// the lifetimes of opts.FaultModel. A census never fails a trial, so it
// rejects the settings that weigh or count failures: RareEvent,
// BiasFactor, TargetFailures and MaxTrials; Validate's other rejections
// apply as well. A cancelled census returns the tallies gathered so far,
// marked Partial.
func RunFaultCensus(ctx context.Context, opts ReliabilityOptions) (FaultCensus, error) {
	if opts.RareEvent || opts.BiasFactor != 0 || opts.TargetFailures != 0 || opts.MaxTrials != 0 {
		return FaultCensus{}, fmt.Errorf("citadel: a census takes no rareEvent, biasFactor, targetFailures or maxTrials")
	}
	// The census runs no scheme; None declares no parameters, so setup
	// checks the settings and builds the fault model alone.
	opts = opts.withDefaults()
	_, eo, err := opts.setup(SchemeNone)
	if err != nil {
		return FaultCensus{}, err
	}
	return faultsim.RunCensusContext(ctx, eo, opts.TSVSwap), nil
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
