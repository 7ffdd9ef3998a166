package jobs

import (
	"context"
	"fmt"
	"sort"
	"strings"

	citadel "repro"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/obs/trace"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Job kinds.
const (
	KindReliability = "reliability"
	KindPerformance = "performance"
	KindExperiment  = "experiment"
)

// DefaultCheckpointTrials is the default reliability chunk size: a
// checkpoint is persisted after every chunk, so this bounds the work a
// crash can lose.
const DefaultCheckpointTrials = 10000

// Spec describes one campaign. Exactly one of the kind-specific
// sub-specs must be set, matching Kind.
type Spec struct {
	// Kind selects the engine: reliability, performance, or experiment.
	Kind string `json:"kind"`
	// Priority orders the queue (higher runs first; FIFO within a
	// priority). It does not affect the result and is excluded from the
	// content key.
	Priority int `json:"priority,omitempty"`

	Reliability *ReliabilitySpec `json:"reliability,omitempty"`
	Performance *PerformanceSpec `json:"performance,omitempty"`
	Experiment  *ExperimentSpec  `json:"experiment,omitempty"`
}

// ReliabilitySpec is the one JSON form of a Monte Carlo reliability run:
// the body of POST /api/v1/reliability, the reliability part of a job and
// what citadel-sim builds from its flags. A campaign is the only
// checkpointable kind: trials run in CheckpointTrials-sized chunks,
// merged with faultsim.Merge and checkpointed after every chunk. Every
// trial draws from its own stream of Seed, so chunking does not change
// which trials are drawn.
type ReliabilitySpec struct {
	Scheme        string  `json:"scheme"`
	Trials        int     `json:"trials"`
	TSVFIT        float64 `json:"tsvFit"`
	TSVSwap       bool    `json:"tsvSwap"`
	LifetimeYears float64 `json:"lifetimeYears"`
	ScrubHours    float64 `json:"scrubHours"`
	Seed          int64   `json:"seed"`
	// Workers bounds the engine's parallelism on the host that runs the
	// trials (0 selects its GOMAXPROCS). It does not change the result,
	// so it is not part of the content key.
	Workers int `json:"workers"`
	// CheckpointTrials is a campaign's chunk size (default
	// DefaultCheckpointTrials, clamped to Trials); a synchronous run takes
	// none. Part of the content key: importance weights sum per chunk, so
	// a different chunk layout can round them differently.
	CheckpointTrials int `json:"checkpointTrials"`
	// RareEvent runs every chunk through the importance-sampled
	// rare-event engine; the campaign result is Weighted. omitempty keeps
	// it out of plain campaigns' canonical JSON and content keys.
	RareEvent bool `json:"rareEvent,omitempty"`
	// BiasFactor is the rare-event rate inflation (normalized to
	// citadel.DefaultBiasFactor when RareEvent is set; must be >= 1).
	// Part of the content key: a different bias is a different
	// deterministic run.
	BiasFactor float64 `json:"biasFactor,omitempty"`
	// FaultModel names the registered arrival-process plugin. Normalized
	// to "" when it names scenario.DefaultFaultModel, and omitted from the
	// JSON encoding when empty, so spelling out the default model keeps
	// the content key — see TestScenarioSpecKeys.
	FaultModel string `json:"faultModel,omitempty"`
	// ScenarioParams are plugin knobs shared by the scheme and fault-model
	// plugins. An empty map normalizes to nil (and is omitted from the
	// encoding) for the same key-stability reason. Part of the content key
	// otherwise: different knobs are a different deterministic run.
	ScenarioParams map[string]float64 `json:"scenarioParams,omitempty"`
	// TargetFailures and MaxTrials make a run adaptive, and Forensics and
	// MaxExemplars capture failure forensics (see
	// citadel.ReliabilityOptions). POST /api/v1/reliability and
	// citadel-sim honour them; Spec.Validate rejects them in a campaign,
	// whose chunks cannot yet stop at the trial a direct run stops at.
	// omitempty keeps them out of every content key.
	TargetFailures int  `json:"targetFailures,omitempty"`
	MaxTrials      int  `json:"maxTrials,omitempty"`
	Forensics      bool `json:"forensics,omitempty"`
	MaxExemplars   int  `json:"maxExemplars,omitempty"`
}

// Options maps the spec onto the library's reliability options. It is
// the one such mapping: RunChunk specializes it per chunk, Spec.Validate
// checks it whole, and POST /api/v1/reliability and citadel-sim run it.
// Scheme is Simulate's own argument and CheckpointTrials shapes only a
// campaign, so neither is mapped.
func (r *ReliabilitySpec) Options() citadel.ReliabilityOptions {
	return citadel.ReliabilityOptions{
		Rates:              citadel.Table1Rates().WithTSV(r.TSVFIT),
		Trials:             r.Trials,
		TargetFailures:     r.TargetFailures,
		MaxTrials:          r.MaxTrials,
		LifetimeYears:      r.LifetimeYears,
		ScrubIntervalHours: r.ScrubHours,
		TSVSwap:            r.TSVSwap,
		Seed:               r.Seed,
		Workers:            r.Workers,
		Forensics:          r.Forensics,
		MaxExemplars:       r.MaxExemplars,
		RareEvent:          r.RareEvent,
		BiasFactor:         r.BiasFactor,
		FaultModel:         r.FaultModel,
		ScenarioParams:     r.ScenarioParams,
	}
}

// PerformanceSpec configures a timing/power run (base plus protected
// configuration, like POST /api/v1/performance). Not checkpointable:
// an interrupted run restarts from scratch on recovery.
type PerformanceSpec struct {
	Benchmark  string `json:"benchmark"`
	Striping   string `json:"striping"`   // same-bank | across-banks | across-channels
	Protection string `json:"protection"` // none | 3dp | 3dp-no-cache
	Requests   int    `json:"requests"`
	Seed       int64  `json:"seed"`
}

// resolve looks up the benchmark and parses the striping and protection
// names of a normalized spec.
func (p *PerformanceSpec) resolve() (citadel.Benchmark, citadel.Striping, citadel.Protection, error) {
	b, ok := citadel.BenchmarkByName(p.Benchmark)
	if !ok {
		return b, 0, 0, fmt.Errorf("jobs: unknown benchmark %q", p.Benchmark)
	}
	striping, prot, err := citadel.ParsePerfNames(p.Striping, p.Protection)
	if err != nil {
		return b, 0, 0, fmt.Errorf("jobs: %w", err)
	}
	return b, striping, prot, nil
}

// RunPerformance runs a normalized performance spec: the Same-Bank,
// unprotected baseline and the configured run, over the same request
// stream. It is the one implementation shared by performance jobs and
// POST /api/v1/performance. A cancelled context leaves Base or Run
// Partial; the error is a configuration error.
func RunPerformance(ctx context.Context, p *PerformanceSpec, runID string, tracer *trace.Recorder) (PerformanceResult, error) {
	b, striping, prot, err := p.resolve()
	if err != nil {
		return PerformanceResult{}, err
	}
	return PerformanceResult{
		Base: citadel.SimulatePerformance(ctx, b, citadel.PerfOptions{Requests: p.Requests, Seed: p.Seed}),
		Run: citadel.SimulatePerformance(ctx, b, citadel.PerfOptions{
			Striping: striping, Protection: prot, Requests: p.Requests, Seed: p.Seed,
			RunID: runID, Tracer: tracer,
		}),
	}, nil
}

// ExperimentSpec regenerates one paper table/figure by ID. Not
// checkpointable: an interrupted run restarts from scratch on recovery.
type ExperimentSpec struct {
	ID       string `json:"id"`
	Trials   int    `json:"trials"`
	Requests int    `json:"requests"`
	Seed     int64  `json:"seed"`
}

// Normalize returns a copy with every defaulted field made explicit,
// mirroring the engine defaults (citadel.ReliabilityOptions /
// faultsim.Options.withDefaults). Keys are derived from the normalized
// form so a zero field and its explicit default address the same stored
// result — see TestKeyNormalizesDefaults.
func (s Spec) Normalize() Spec {
	switch {
	case s.Reliability != nil:
		r := *s.Reliability
		if r.Trials <= 0 {
			r.Trials = faultsim.DefaultTrials
		}
		if r.LifetimeYears == 0 {
			r.LifetimeYears = fault.LifetimeHours / fault.HoursPerYear
		}
		if r.ScrubHours == 0 {
			r.ScrubHours = faultsim.DefaultScrubIntervalHours
		}
		if r.CheckpointTrials <= 0 {
			r.CheckpointTrials = DefaultCheckpointTrials
		}
		if r.CheckpointTrials > r.Trials {
			r.CheckpointTrials = r.Trials
		}
		if r.RareEvent && r.BiasFactor == 0 {
			r.BiasFactor = citadel.DefaultBiasFactor
		}
		if r.FaultModel == scenario.DefaultFaultModel {
			r.FaultModel = ""
		}
		if len(r.ScenarioParams) == 0 {
			r.ScenarioParams = nil
		}
		s.Reliability = &r
	case s.Performance != nil:
		p := *s.Performance
		if p.Requests <= 0 {
			p.Requests = 50000
		}
		if p.Striping == "" {
			p.Striping = "same-bank"
		}
		if p.Protection == "" {
			p.Protection = "none"
		}
		s.Performance = &p
	case s.Experiment != nil:
		e := *s.Experiment
		if e.Trials <= 0 {
			e.Trials = faultsim.DefaultTrials
		}
		if e.Requests <= 0 {
			e.Requests = 60000
		}
		s.Experiment = &e
	}
	if s.Kind == "" {
		switch {
		case s.Reliability != nil:
			s.Kind = KindReliability
		case s.Performance != nil:
			s.Kind = KindPerformance
		case s.Experiment != nil:
			s.Kind = KindExperiment
		}
	}
	return s
}

// Key returns the canonical content address of the campaign: the
// SHA-256 of checkpointVersion and the normalized spec with priority and
// workers stripped. Two specs that describe the same deterministic
// computation — whether their fields are explicit or defaulted — share a
// key and therefore a cached result; results and checkpoints of an older
// sampling scheme live under other keys.
func (s Spec) Key() (string, error) {
	n := s.Normalize()
	n.Priority = 0
	if n.Reliability != nil {
		n.Reliability.Workers = 0
	}
	return store.Key([]any{checkpointVersion, n})
}

// Validate rejects malformed specs before they enter the queue. It is
// the one check of a submitted spec: besides the shape of the spec it
// rejects a negative count, anything citadel.ReliabilityOptions.Validate
// rejects, and a reliability campaign that asks for an adaptive target or
// cap or for forensics.
func (s Spec) Validate() error {
	set := 0
	for _, ok := range []bool{s.Reliability != nil, s.Performance != nil, s.Experiment != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("jobs: spec must set exactly one of reliability, performance, experiment (got %d)", set)
	}
	// Normalize turns a non-positive count into its default, so counts
	// are checked as submitted.
	type count struct {
		name string
		n    int
	}
	var counts []count
	switch {
	case s.Reliability != nil:
		counts = []count{{"trials", s.Reliability.Trials}, {"checkpointTrials", s.Reliability.CheckpointTrials}}
	case s.Performance != nil:
		counts = []count{{"requests", s.Performance.Requests}}
	case s.Experiment != nil:
		counts = []count{{"trials", s.Experiment.Trials}, {"requests", s.Experiment.Requests}}
	}
	for _, c := range counts {
		if c.n < 0 {
			return fmt.Errorf("jobs: %s must be non-negative, got %d", c.name, c.n)
		}
	}
	n := s.Normalize()
	switch n.Kind {
	case KindReliability:
		r := n.Reliability
		if r == nil {
			return fmt.Errorf("jobs: kind %q requires the reliability spec", n.Kind)
		}
		// The shared validator also checks every value and dry-runs the
		// plugin builders, so value errors (a negative rate, a bad
		// codeword width) are rejected at submission instead of surfacing
		// as failed chunks.
		if err := r.Options().Validate(citadel.Scheme(r.Scheme)); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		var synchronous []string
		for name, set := range map[string]bool{
			"targetFailures": r.TargetFailures != 0, "maxTrials": r.MaxTrials != 0,
			"forensics": r.Forensics, "maxExemplars": r.MaxExemplars != 0,
		} {
			if set {
				synchronous = append(synchronous, name)
			}
		}
		if len(synchronous) > 0 {
			sort.Strings(synchronous)
			return fmt.Errorf("jobs: a reliability campaign does not take %s yet; run it through POST /api/v1/reliability or citadel-sim without -job-dir",
				strings.Join(synchronous, ", "))
		}
	case KindPerformance:
		p := n.Performance
		if p == nil {
			return fmt.Errorf("jobs: kind %q requires the performance spec", n.Kind)
		}
		if _, _, _, err := p.resolve(); err != nil {
			return err
		}
	case KindExperiment:
		e := n.Experiment
		if e == nil {
			return fmt.Errorf("jobs: kind %q requires the experiment spec", n.Kind)
		}
		known := false
		for _, id := range experiments.All() {
			if id == e.ID {
				known = true
				break
			}
		}
		for _, id := range experiments.Ablations() {
			if id == e.ID {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("jobs: unknown experiment %q", e.ID)
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q", s.Kind)
	}
	return nil
}
