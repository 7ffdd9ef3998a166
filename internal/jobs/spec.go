package jobs

import (
	"fmt"

	citadel "repro"
	"repro/internal/experiments"
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

// ReliabilitySpec configures a Monte Carlo reliability campaign — the
// only checkpointable kind: trials run in CheckpointTrials-sized chunks,
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
	// Workers bounds the engine's parallelism on the host that runs a
	// chunk (0 selects its GOMAXPROCS). It does not change the result,
	// so it is not part of the content key.
	Workers int `json:"workers"`
	// CheckpointTrials is the chunk size (default
	// DefaultCheckpointTrials, clamped to Trials). Part of the content
	// key: importance weights sum per chunk, so a different chunk layout
	// can round them differently.
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
			r.Trials = 100000
		}
		if r.LifetimeYears == 0 {
			r.LifetimeYears = 7
		}
		if r.ScrubHours == 0 {
			r.ScrubHours = 12
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
			e.Trials = 100000
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

// Validate rejects malformed specs before they enter the queue.
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
	n := s.Normalize()
	switch n.Kind {
	case KindReliability:
		r := n.Reliability
		if r == nil {
			return fmt.Errorf("jobs: kind %q requires the reliability spec", n.Kind)
		}
		if r.TSVFIT < 0 || r.LifetimeYears < 0 || r.ScrubHours < 0 {
			return fmt.Errorf("jobs: tsvFit, lifetimeYears and scrubHours must be non-negative")
		}
		// The shared validator also dry-runs the plugin builders, so value
		// errors (a bad codeword width, a non-positive rate) are rejected
		// at submission instead of surfacing as failed chunks.
		if err := r.options().Validate(citadel.Scheme(r.Scheme)); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	case KindPerformance:
		p := n.Performance
		if p == nil {
			return fmt.Errorf("jobs: kind %q requires the performance spec", n.Kind)
		}
		if _, ok := citadel.BenchmarkByName(p.Benchmark); !ok {
			return fmt.Errorf("jobs: unknown benchmark %q", p.Benchmark)
		}
		switch p.Striping {
		case "same-bank", "across-banks", "across-channels":
		default:
			return fmt.Errorf("jobs: unknown striping %q", p.Striping)
		}
		switch p.Protection {
		case "none", "3dp", "3dp-no-cache":
		default:
			return fmt.Errorf("jobs: unknown protection %q", p.Protection)
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
