package rare

// Multilevel splitting: an estimator that conditions on the number of
// simultaneously live faults. It shares no bias machinery with importance
// sampling, so the tests below use it as an independent oracle for the IS
// engine, on policies without sparing where it resolves (see
// TestSplitAncestorDiversity for where it does not). It reaches the engine
// only through faultsim.TrialRunner and faultsim.SplitStreamSeed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
)

// splitOptions configures a multilevel-splitting run. The embedded
// faultsim.Options keep their meaning; Trials is the per-stage effort.
type splitOptions struct {
	faultsim.Options
	// Levels are the live-fault thresholds of the intermediate stages,
	// strictly increasing and >= 1 (default [1, 2]): stage k estimates
	// the probability of ever having Levels[k] simultaneously live
	// faults given Levels[k-1] were reached, and a final stage estimates
	// failure given the last level.
	Levels []int
}

// splitResult is a multilevel-splitting estimate. It deliberately does
// not reuse faultsim.Result: the product-of-stages estimator has no
// per-trial weights to merge, and its variance composes differently.
type splitResult struct {
	Policy string
	// Levels echoes the thresholds used.
	Levels []int
	// StageProbs[k] is the estimated conditional probability of stage k:
	// reaching Levels[k] given the previous level for k < len(Levels),
	// and failing given the last level for the final entry
	// (len(StageProbs) == len(Levels)+1).
	StageProbs []float64
	// Probability is the product of the stage estimates.
	Probability float64
	// RelCI95 is the approximate relative half-width of the 95% interval
	// on Probability, composed from the per-stage binomial variances
	// under the usual stage-independence approximation. Infinite when
	// any stage observed zero successes. The approximation also assumes
	// each stage's successes descend from many distinct entrance states;
	// see MinAncestors for the diagnostic that validates it.
	RelCI95 float64
	// StageAncestors[k] counts, for branching stage k+1 (stage 0 draws
	// fresh lifetimes and has no entrances), the distinct entrance
	// states its successes descended from. It is the splitting analogue
	// of the IS engine's effective sample size: resampling with
	// replacement makes a stage's trials exchangeable but not
	// independent, and when few ancestors carry all the success mass the
	// binomial variance model under-reports by the concentration factor.
	StageAncestors []int
	// MinAncestors is the minimum of StageAncestors — the bottleneck
	// diversity. Small values (≲30) mean the estimate hinges on a
	// handful of lucky entrance draws: the importance function (live
	// fault count) is not tracking the failure mechanism for this
	// config, typical realizations sit below the true mean, and RelCI95
	// is not to be trusted. Raise per-stage trials or prefer IS.
	// Zero when no branching stage recorded a success.
	MinAncestors int
	// TrialsPerStage is the fixed effort spent at each stage.
	TrialsPerStage int
	// Err reports rejected levels; the run then sets Partial and
	// estimates nothing.
	Partial bool
	Err     error
}

// CI95 returns the absolute half-width on Probability.
func (r splitResult) CI95() float64 {
	if math.IsInf(r.RelCI95, 0) {
		return math.Inf(1)
	}
	return r.Probability * r.RelCI95
}

// minHealthyAncestors is the diversity floor below which a splitting
// estimate is flagged unreliable: with fewer distinct ancestors behind
// a stage's successes, the stage-independence variance model has no
// basis and the realization is typically far below the mean.
const minHealthyAncestors = 30

// String renders the estimate in one line. A stage with zero successes
// leaves the product unresolved (infinite relative CI); that is spelled
// out rather than rendered as a bare "0 ±Inf%", which reads like a
// claim of zero risk. A resolved estimate resting on too few distinct
// entrance ancestors carries an explicit unreliability warning for the
// same reason: the number would read as more certain than it is.
func (r splitResult) String() string {
	var s string
	if math.IsInf(r.RelCI95, 0) {
		s = fmt.Sprintf("%s: P(fail,7y) unresolved at %d/stage — a stage saw 0 successes; raise per-stage trials (splitting, levels %v)",
			r.Policy, r.TrialsPerStage, r.Levels)
	} else {
		s = fmt.Sprintf("%s: P(fail,7y) = %.3g ±%.0f%% (splitting, levels %v, %d/stage)",
			r.Policy, r.Probability, 100*r.RelCI95, r.Levels, r.TrialsPerStage)
		if len(r.StageAncestors) > 0 && r.MinAncestors < minHealthyAncestors {
			s += fmt.Sprintf(" [unreliable: a stage's successes descend from only %d distinct entrances — raise per-stage trials or prefer the IS engine]",
				r.MinAncestors)
		}
	}
	if r.Partial {
		s += " [partial]"
	}
	return s
}

// withDefaults mirrors the IS defaults and fills Levels.
func (o splitOptions) withDefaults() splitOptions {
	if o.LifetimeHours == 0 {
		o.LifetimeHours = fault.LifetimeHours
	}
	if o.ScrubIntervalHours == 0 {
		o.ScrubIntervalHours = faultsim.DefaultScrubIntervalHours
	}
	if o.Trials == 0 {
		o.Trials = 100000
	}
	if len(o.Levels) == 0 {
		o.Levels = []int{1, 2}
	}
	return o
}

// entrance is one trajectory frozen at the moment it first reached a
// level: the fault-list prefix through the crossing arrival and the
// crossing time. failed marks trajectories that went uncorrectable
// before ever crossing — failure is the event being estimated, so it
// absorbs: such a trajectory counts as a success at this and every
// later stage. A trajectory is never classified by anything past its
// crossing (RunToLevel stops there); looking further — e.g. absorbing
// trajectories whose original suffix failed after the crossing while
// resampling fresh suffixes for the survivors — selects survivors for a
// reroll and double-counts failure mass, biasing the product upward.
type entrance struct {
	prefix []fault.Fault
	at     float64
	failed bool
}

// policyName mirrors faultsim's effective policy naming.
func policyName(pol faultsim.Policy) string {
	if pol.Name != "" {
		return pol.Name
	}
	return pol.Predicate.Name()
}

// runSplit estimates failure probability by fixed-effort multilevel
// splitting on the number of simultaneously live faults. Stage 0 draws
// Trials whole lifetimes and keeps those that reach Levels[0] (or fail
// outright); each later stage
// draws Trials trajectories by picking a random entrance state from the
// previous stage and — Poisson arrivals being memoryless — resampling
// the suffix of the lifetime on (t, T] with fault.Sampler.AppendWindow;
// the final stage scores failure. The estimate is the product of the
// per-stage success fractions.
//
// The estimator is deliberately single-threaded: entrance selection
// feeds back between trials, so a deterministic parallel version would
// need per-stage barriers for little gain, and it exists to
// cross-validate importance sampling, not to replace it. Each stage draws
// from its own faultsim.SplitStreamSeed stream.
func runSplit(opt splitOptions, pol faultsim.Policy) splitResult {
	opt = opt.withDefaults()
	res := splitResult{
		Policy:         policyName(pol),
		Levels:         append([]int(nil), opt.Levels...),
		TrialsPerStage: opt.Trials,
	}
	for i, l := range opt.Levels {
		if l < 1 || (i > 0 && l <= opt.Levels[i-1]) {
			res.Err = fmt.Errorf("rare: levels must be strictly increasing and >= 1, got %v", opt.Levels)
			res.Partial = true
			return res
		}
	}
	sampler := fault.NewSampler(opt.Config, opt.Rates)
	runner := faultsim.NewTrialRunner(opt.Config, pol, opt.ScrubIntervalHours)

	stages := len(opt.Levels) + 1
	current := []entrance(nil)
	varTerm := 0.0 // Σ (1−p̂)/(N·p̂) across stages
	var buf []fault.Fault
	for stage := 0; stage < stages; stage++ {
		rng := rand.New(rand.NewSource(faultsim.SplitStreamSeed(opt.Seed, stage)))
		final := stage == stages-1
		var level int
		if !final {
			level = opt.Levels[stage]
		}
		next := make([]entrance, 0, opt.Trials/4)
		successes := 0
		// Branching stages resample entrances with replacement, so their
		// trials are exchangeable but not independent: record which
		// distinct ancestors the successes descend from (see
		// splitResult.StageAncestors).
		var ancestors map[int]struct{}
		if stage > 0 {
			ancestors = make(map[int]struct{})
		}
		for t := 0; t < opt.Trials; t++ {
			// Build this trial's fault list: a fresh lifetime at stage 0,
			// afterwards a resampled continuation of a random entrance.
			var from entrance
			fromIdx := -1
			if stage == 0 {
				buf = sampler.AppendLifetime(rng, opt.LifetimeHours, buf[:0])
			} else {
				fromIdx = rng.Intn(len(current))
				from = current[fromIdx]
				if from.failed {
					successes++
					ancestors[fromIdx] = struct{}{}
					if !final {
						next = append(next, from)
					}
					continue
				}
				buf = append(buf[:0], from.prefix...)
				buf = sampler.AppendWindow(rng, from.at, opt.LifetimeHours-from.at, buf)
			}
			if final {
				if len(buf) == 0 {
					continue
				}
				if when, _ := runner.Run(buf); when >= 0 {
					successes++
					ancestors[fromIdx] = struct{}{}
				}
				continue
			}
			crossIdx, crossAt, failed := runner.RunToLevel(buf, level)
			switch {
			case crossIdx >= 0:
				successes++
				next = append(next, entrance{
					prefix: append([]fault.Fault(nil), buf[:crossIdx+1]...),
					at:     crossAt,
				})
			case failed:
				successes++
				next = append(next, entrance{failed: true})
			}
			if ancestors != nil && (crossIdx >= 0 || failed) {
				ancestors[fromIdx] = struct{}{}
			}
		}
		if stage > 0 {
			res.StageAncestors = append(res.StageAncestors, len(ancestors))
			if stage == 1 || len(ancestors) < res.MinAncestors {
				res.MinAncestors = len(ancestors)
			}
		}
		p := float64(successes) / float64(opt.Trials)
		res.StageProbs = append(res.StageProbs, p)
		if successes == 0 {
			res.Probability = 0
			res.RelCI95 = math.Inf(1)
			return res
		}
		varTerm += (1 - p) / (float64(opt.Trials) * p)
		current = next
	}
	res.Probability = 1
	for _, p := range res.StageProbs {
		res.Probability *= p
	}
	res.RelCI95 = 1.96 * math.Sqrt(varTerm)
	return res
}

// TestSplitCrossValidatesNaive checks the splitting estimator against
// the batch oracle on an inflated config.
func TestSplitCrossValidatesNaive(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()
	base := faultsim.Options{
		Config: cfg, Rates: scaledRates(10, 0),
		Trials: 30000, Seed: 9,
	}
	naive := faultsim.RunContext(context.Background(), base, oneDP(cfg))
	split := runSplit(splitOptions{Options: base}, oneDP(cfg))
	if naive.Failures < 50 {
		t.Fatalf("test signal too weak: naive saw only %d failures", naive.Failures)
	}
	if split.Partial {
		t.Fatalf("split unexpectedly partial: %v", split.Err)
	}
	if len(split.StageProbs) != 3 {
		t.Fatalf("default levels [1 2] should give 3 stages, got %v", split.StageProbs)
	}
	diff := math.Abs(naive.Probability() - split.Probability)
	tol := 3 * (naive.CI95() + split.CI95())
	if diff > tol {
		t.Errorf("split %.4g vs naive %.4g: |diff| %.4g > tol %.4g (stages %v)",
			split.Probability, naive.Probability(), diff, tol, split.StageProbs)
	}
}

// TestSplitCrossValidatesISOnTail is the tail-config cross-check the
// tentpole asks for: two estimators sharing no bias machinery agreeing
// on a ~1e-6 probability.
func TestSplitCrossValidatesISOnTail(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()
	base := faultsim.Options{Config: cfg, Rates: tailRates(), Trials: 150000, Seed: 17}
	is := faultsim.RunContext(context.Background(), Options{Options: base, BiasFactor: 16}.Engine(), threeDP(cfg))
	split := runSplit(splitOptions{Options: base}, threeDP(cfg))
	if is.Failures < 30 {
		t.Fatalf("IS signal too weak on the tail: %d failures", is.Failures)
	}
	if split.Probability == 0 {
		t.Fatalf("splitting resolved nothing on the tail: stages %v", split.StageProbs)
	}
	diff := math.Abs(is.Probability() - split.Probability)
	tol := 3 * (is.CI95() + split.CI95())
	if diff > tol {
		t.Errorf("split %.4g vs IS %.4g: |diff| %.4g > tol %.4g (stages %v, IS %s)",
			split.Probability, is.Probability(), diff, tol, split.StageProbs, is)
	}
}

// TestSplitRejectsBadLevels pins level validation.
func TestSplitRejectsBadLevels(t *testing.T) {
	cfg := stack.DefaultConfig()
	for _, levels := range [][]int{{0}, {2, 2}, {3, 1}} {
		res := runSplit(splitOptions{
			Options: faultsim.Options{Config: cfg, Rates: scaledRates(10, 0), Trials: 10},
			Levels:  levels,
		}, oneDP(cfg))
		if res.Err == nil {
			t.Errorf("levels %v accepted, want error", levels)
		}
	}
}

// citadelLike is the full production policy shape — 3DP plus DDS
// sparing — whose scrub-time sparing removes permanent faults from the
// live set and thereby decouples the live-fault count from the failure
// mechanism at realistic rates.
func citadelLike(cfg stack.Config) faultsim.Policy {
	return faultsim.Policy{
		Name:      "CitadelLike",
		Predicate: ecc.NewParity(cfg, parity.ThreeDP),
		NewSparer: func(c stack.Config) faultsim.Sparer { return sparing.New(c) },
	}
}

// TestSplitAncestorDiversity pins the degeneracy diagnostic. On an
// inflated config the live-fault importance function tracks failure and
// successes descend from thousands of distinct entrances; at Table I
// rates with sparing active almost no entrance state can fail, the
// whole product hangs off at most a couple of lucky draws, and the
// result must say so instead of presenting its (meaningless) binomial
// CI at face value.
func TestSplitAncestorDiversity(t *testing.T) {
	skipInShort(t)
	cfg := stack.DefaultConfig()

	healthy := runSplit(splitOptions{
		Options: faultsim.Options{Config: cfg, Rates: scaledRates(10, 0), Trials: 60000, Seed: 1},
	}, citadelLike(cfg))
	if healthy.MinAncestors < minHealthyAncestors {
		t.Errorf("inflated config: MinAncestors %d < %d, expected healthy diversity (stages %v, ancestors %v)",
			healthy.MinAncestors, minHealthyAncestors, healthy.StageProbs, healthy.StageAncestors)
	}
	if s := healthy.String(); strings.Contains(s, "unreliable") {
		t.Errorf("healthy estimate flagged unreliable: %s", s)
	}
	if len(healthy.StageAncestors) != len(healthy.Levels) {
		t.Errorf("want one ancestor count per branching stage (%d), got %v",
			len(healthy.Levels), healthy.StageAncestors)
	}

	degenerate := runSplit(splitOptions{
		Options: faultsim.Options{Config: cfg, Rates: scaledRates(1, 0), Trials: 60000, Seed: 3},
	}, citadelLike(cfg))
	if degenerate.MinAncestors >= minHealthyAncestors {
		t.Fatalf("Table I config: MinAncestors %d, expected diversity collapse (stages %v, ancestors %v)",
			degenerate.MinAncestors, degenerate.StageProbs, degenerate.StageAncestors)
	}
	s := degenerate.String()
	if degenerate.RelCI95 != math.Inf(1) && !strings.Contains(s, "unreliable") {
		t.Errorf("degenerate resolved estimate not flagged: %s", s)
	}
	if degenerate.RelCI95 == math.Inf(1) && !strings.Contains(s, "unresolved") {
		t.Errorf("zero-success estimate must say unresolved, got: %s", s)
	}
}
