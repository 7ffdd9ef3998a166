// Package faultsim is a FaultSim-style Monte Carlo lifetime simulator for
// stacked-memory protection schemes (the paper's reliability methodology,
// §III-B): fault events arrive as Poisson processes at the Table-I FIT
// rates, a scrubber runs every 12 hours, and each scheme's correctability
// predicate classifies the accumulated fault state after every arrival. A
// trial fails at the first uncorrectable state; the probability of system
// failure over a 7-year lifetime is estimated across 10^5–10^6 independent
// trials, parallelized across workers, each trial drawing from its own
// deterministic RNG stream.
package faultsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/obs/trace"
	"repro/internal/stack"
	"repro/internal/tsv"
)

// DefaultScrubIntervalHours is the paper's 12-hour scrub interval.
const DefaultScrubIntervalHours = 12

// cancelCheckInterval is the size of the trial blocks execute hands out.
// A worker checks ctx and flushes its progress once per block, so
// cancellation latency is bounded by one block of trials per worker; a
// smaller block also shortens the run's tail, where one worker finishes
// its last block while the others have none left.
const cancelCheckInterval = 64

// Sparer redirects corrected permanent faults to spare storage (DDS).
type Sparer interface {
	// Offer hands over a corrected permanent fault; it returns whether the
	// fault is now spared plus indices into live of other faults spared as
	// a side effect.
	Offer(f fault.Fault, live []fault.Fault) (sparedSelf bool, sparedLive []int)
}

// Arrivals generates the fault-event sequence of one Monte Carlo trial.
// fault.Sampler satisfies it as-is (the Poisson FIT-rate process); fault
// model plugins (internal/scenario) provide alternatives such as
// activation-driven rowhammer arrivals. Implementations must draw all
// randomness from rng, which the engine reseeds before every trial, and
// must draw nothing from state carried over from earlier lifetimes: the
// determinism contract (a seeded Result depends on neither worker count
// nor host, and a trial replays alone) extends through this interface.
// The appended portion must be sorted by Fault.Hours.
type Arrivals interface {
	AppendLifetime(rng *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault
}

// ArrivalStats is optionally implemented by Arrivals sources that
// accumulate per-scenario counters (e.g. rowhammer activation
// histograms). The engine calls FlushStats once per worker after its
// trials finish and adds the maps into Result.ScenarioStats, so every
// counter must sum exactly (integer counts, or multiples of a
// power-of-two quantum) for the total not to depend on the worker count
// or on which trials each worker happened to run.
type ArrivalStats interface {
	FlushStats(dst map[string]float64)
}

// ArrivalWeights is optionally implemented by Arrivals sources that draw
// lifetimes under a biased measure — importance sampling (internal/rare)
// is such a source wrapped around the Poisson sampler. LogWeight returns
// the log-likelihood ratio, nominal over biased density, of the lifetime
// AppendLifetime just drew (the engine asks only for failing trials). A
// run over such a source is Weighted: each failing trial counts with
// weight exp(LogWeight), and the float tallies fold one trial at a time
// in trial order.
type ArrivalWeights interface {
	LogWeight(lifetime []fault.Fault) float64
}

// Observer watches applied fault arrivals of one worker's trials —
// scenario plugins use it to surface repair-cost statistics (e.g.
// two-tier backing-store fetch traffic) without touching the
// correctability verdict. Observers are constructed per worker
// (Policy.NewObserver), so implementations need no locking, and must not
// influence the simulation: verdicts, RNG draws, and trial control flow
// are identical with or without one.
type Observer interface {
	// Arrival is called once per fault arrival that enters the live set
	// (TSV-SWAP-repaired faults are not applied and not observed), after
	// the correctability verdict for that arrival.
	Arrival(f fault.Fault, uncorrectable bool)
	// FlushStats adds the worker's accumulated counters into dst; the
	// engine adds per-worker maps into Result.ScenarioStats, so counters
	// must sum exactly (see ArrivalStats).
	FlushStats(dst map[string]float64)
}

// Policy is a complete protection configuration to simulate.
type Policy struct {
	// Name appears in reports; defaults to the predicate's name.
	Name string
	// Predicate decides correctability of the live fault set.
	Predicate ecc.Predicate
	// UseTSVSwap enables TSV-SWAP repair of TSV fault arrivals.
	UseTSVSwap bool
	// TSVStandbyPool overrides the stand-by TSV count per channel
	// (0 = the paper's default of 4).
	TSVStandbyPool int
	// NewSparer, when non-nil, constructs per-trial sparing state (DDS).
	NewSparer func(cfg stack.Config) Sparer
	// NewObserver, when non-nil, constructs a per-worker arrival observer
	// whose flushed counters land in Result.ScenarioStats. Observers are
	// passive: they must not change verdicts or draw randomness.
	NewObserver func(cfg stack.Config) Observer
}

// name returns the effective policy name.
func (p Policy) name() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Predicate.Name()
}

// Options configures a Monte Carlo run.
type Options struct {
	Config stack.Config
	Rates  fault.Rates
	// Trials is the trial count of a fixed run, and the batch size of an
	// adaptive one.
	Trials int
	// TargetFailures, when positive, makes the run adaptive: it runs
	// batches of Trials trials until a batch ends with at least this many
	// failing trials in the run, or MaxTrials trials have run — the
	// paper's "more trials for schemes that show lower failure rates"
	// (§III-B). Result.TargetMet tells the two stops apart. Zero runs
	// exactly Trials trials.
	TargetFailures int
	// MaxTrials caps an adaptive run (default 10 × Trials). A fixed run
	// ignores it.
	MaxTrials          int
	LifetimeHours      float64 // default: fault.LifetimeHours (7 years)
	ScrubIntervalHours float64 // default: 12
	// Seed selects the sample: trial t draws its lifetime from its own
	// RNG stream, derived from (Seed, t), so equal Options give
	// bit-identical Results on any host and at any worker count.
	Seed int64
	// Workers bounds parallelism; it is clamped to [1, GOMAXPROCS]
	// (0 or negative selects GOMAXPROCS). It does not change the Result.
	Workers int
	// Progress, when non-nil, receives a snapshot of the run roughly
	// every ProgressInterval plus one final snapshot (Done set) when the
	// run ends. Calls are serialized: the hook never runs concurrently
	// with itself.
	Progress func(Progress)
	// ProgressInterval throttles Progress callbacks (default 1s).
	ProgressInterval time.Duration
	// RunID is the correlation key threaded into Progress snapshots,
	// forensic exemplars, and trace events. Optional.
	RunID string
	// Forensics enables failure forensics: each uncorrectable trial is
	// bucketed into Result.Breakdown by fault-mode combination and the
	// first MaxExemplars failures are captured as replayable
	// Result.Exemplars. Off by default — the capture path allocates, the
	// plain trial loop does not.
	Forensics bool
	// MaxExemplars bounds the captured exemplars (default 8 when
	// Forensics is set).
	MaxExemplars int
	// Trace, when non-nil, receives flight-recorder events (sampled trial
	// spans, failure instants, run lifecycle). A nil recorder is fully
	// disabled and costs one branch per trial.
	Trace *trace.Recorder
	// NewArrivals, when non-nil, constructs one arrival process per worker
	// in place of the default fault.NewSampler(Config, Rates). The factory
	// is called once per worker goroutine, so the returned source may keep
	// unsynchronized state; all randomness must come from the rng handed
	// to AppendLifetime. Nil keeps the Poisson FIT-rate process and is
	// bit-identical to the poisson fault-model plugin (internal/scenario),
	// whose factory performs exactly the same construction.
	NewArrivals func() Arrivals
}

// Progress is a point-in-time snapshot of a running Monte Carlo study.
type Progress struct {
	Policy string
	// RunID echoes Options.RunID so progress lines carry the same
	// correlation key as forensic exemplars and trace files.
	RunID string
	// TrialsDone counts trials completed so far out of TrialsTarget.
	TrialsDone, TrialsTarget int
	// Failures counts failing trials so far.
	Failures int
	// ScrubPasses counts scrubber invocations across all trials so far.
	ScrubPasses int64
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Done marks the final snapshot of the run.
	Done bool
}

// TrialsPerSec returns the observed trial throughput.
func (p Progress) TrialsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.TrialsDone) / p.Elapsed.Seconds()
}

// withDefaults fills zero fields. It is the single source of truth for
// effective simulation defaults; citadel.ReliabilityOptions funnels here.
func (o Options) withDefaults() Options {
	if o.LifetimeHours == 0 {
		o.LifetimeHours = fault.LifetimeHours
	}
	if o.ScrubIntervalHours == 0 {
		o.ScrubIntervalHours = DefaultScrubIntervalHours
	}
	if o.Trials == 0 {
		o.Trials = 100000
	}
	if o.TargetFailures > 0 && o.MaxTrials == 0 {
		o.MaxTrials = 10 * o.Trials
	}
	if max := runtime.GOMAXPROCS(0); o.Workers <= 0 || o.Workers > max {
		o.Workers = max
	}
	if o.Forensics && o.MaxExemplars == 0 {
		o.MaxExemplars = 8
	}
	return o
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Policy string
	// Trials counts the trials actually completed. It equals the
	// requested Options.Trials unless the run was cancelled (see
	// Partial).
	Trials   int
	Failures int
	// FailuresByYear[y] counts trials that failed within the first y+1
	// years (cumulative).
	FailuresByYear []int
	// CauseCounts tallies, per failing trial, the class of the fault whose
	// arrival made the state uncorrectable — the proximate cause.
	CauseCounts map[string]int
	// Breakdown tallies failing trials by fault-mode combination (the
	// modeKey of the live set at failure, e.g. "row+bank"). Nil unless
	// Options.Forensics was set; the per-mode counts sum to Failures.
	Breakdown map[string]int
	// Exemplars holds the forensic records of the first MaxExemplars
	// failing trials, in trial order. Nil unless Options.Forensics.
	Exemplars []Forensic
	// ScenarioStats carries additive per-scenario counters flushed by the
	// policy's Observer and the arrival source's ArrivalStats (e.g.
	// two-tier fetch traffic, rowhammer activation histograms). Nil unless
	// the scenario produced any — plain runs stay DeepEqual to their old
	// selves. Merge adds values key-wise with nil-in/nil-out semantics
	// like CauseCounts, and the JSON checkpoint round-trips it unchanged.
	ScenarioStats map[string]float64
	// Weighted marks an importance-sampled result (internal/rare):
	// trials were drawn under a biased fault-arrival measure and each
	// failing trial carries a likelihood-ratio weight. Failures still
	// counts failing trials, but the probability estimate comes from
	// FailWeight, and CI95 switches to the weighted-sample interval.
	Weighted bool
	// FailWeight is the sum of likelihood-ratio weights over failing
	// trials (for a plain run this would equal Failures, every weight
	// being one). Zero unless Weighted.
	FailWeight float64
	// FailWeightSq is the sum of squared likelihood-ratio weights over
	// failing trials; it drives the weighted-sample variance and the
	// effective sample size. Zero unless Weighted.
	FailWeightSq float64
	// FailWeightByYear is the weighted analogue of FailuresByYear
	// (cumulative). Nil unless Weighted.
	FailWeightByYear []float64
	// TargetMet reports, for adaptive runs (Options.TargetFailures > 0),
	// that the failure target was reached before the trial cap — i.e. the
	// run converged rather than gave up at MaxTrials. Always false for
	// fixed-budget runs.
	TargetMet bool
	// Partial reports that the run was cancelled before all requested
	// trials completed; the statistics cover the completed trials only
	// and remain unbiased (trials are independent).
	Partial bool
	// Err records the cancellation cause (context.Canceled or
	// context.DeadlineExceeded) when Partial is set.
	Err error
}

// Probability returns the estimated probability of system failure over the
// full lifetime.
func (r Result) Probability() float64 {
	if r.Trials == 0 {
		return 0
	}
	if r.Weighted {
		return r.FailWeight / float64(r.Trials)
	}
	return float64(r.Failures) / float64(r.Trials)
}

// ProbabilityByYear returns the cumulative failure probability by the end
// of year y (1-based).
func (r Result) ProbabilityByYear(y int) float64 {
	if r.Trials == 0 || y < 1 {
		return 0
	}
	if r.Weighted {
		if y > len(r.FailWeightByYear) {
			return 0
		}
		return r.FailWeightByYear[y-1] / float64(r.Trials)
	}
	if y > len(r.FailuresByYear) {
		return 0
	}
	return float64(r.FailuresByYear[y-1]) / float64(r.Trials)
}

// zeroFailUpper95 is -ln(0.025): the exact 95% one-sided upper bound on
// np when zero failures are observed ((1-p)^n >= 0.025), the "rule of
// three" constant at the 97.5th percentile so it composes with the
// two-sided intervals used elsewhere.
const zeroFailUpper95 = 3.6888794541139363

// CI95 returns the half-width of the 95% confidence interval on
// Probability. For counting runs it is the Wilson score half-width —
// which, unlike the normal approximation it replaced, stays positive and
// calibrated at low counts — and when no failures were observed at all it
// returns the rule-of-three upper bound (~3.7/Trials), so a zero-failure
// run reports a resolvable bound instead of the old "± 0". For weighted
// (importance-sampled) runs it is the weighted-sample interval
// 1.96·sqrt(Var̂/Trials) over the per-trial weight observations. The only
// zero return is the degenerate Trials == 0.
//
// Note the Wilson interval is centered at (p + z²/2n)/(1 + z²/n), a hair
// above the point estimate; callers printing "p ± CI95()" overstate the
// lower edge slightly, conservatively.
func (r Result) CI95() float64 {
	if r.Trials == 0 {
		return 0
	}
	n := float64(r.Trials)
	if r.Failures == 0 {
		// Observed nothing: an interval around 0 is meaningless, an upper
		// bound is not. Applies to weighted runs too — biased sampling
		// inflates failure draws, so the unweighted zero-count bound is
		// conservative for the unbiased probability.
		u := zeroFailUpper95 / n
		if u > 1 {
			u = 1
		}
		return u
	}
	if r.Weighted {
		mean := r.FailWeight / n
		if r.Trials < 2 {
			return mean
		}
		variance := (r.FailWeightSq - r.FailWeight*r.FailWeight/n) / (n - 1)
		if variance <= 0 {
			// Every trial failed with an identical weight; the sample
			// variance cannot see the estimator's spread, so report the
			// mean itself rather than a false zero.
			return mean
		}
		return 1.96 * math.Sqrt(variance/n)
	}
	const z = 1.96
	p := float64(r.Failures) / n
	z2 := z * z
	return z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / (1 + z2/n)
}

// ESS returns the effective sample size of a weighted result's failing
// trials, FailWeight²/FailWeightSq: the number of equally-weighted
// failures carrying the same statistical information. Far below Failures
// means the weights are ragged and the estimate leans on few trials. For
// plain results it is simply Failures.
func (r Result) ESS() float64 {
	if !r.Weighted {
		return float64(r.Failures)
	}
	if r.FailWeightSq <= 0 {
		return 0
	}
	return r.FailWeight * r.FailWeight / r.FailWeightSq
}

// EffectiveTrials returns how many naive Monte Carlo trials would be
// needed to match this result's variance on Probability — the speedup
// metric of the rare-event engine. For plain results it equals Trials.
func (r Result) EffectiveTrials() float64 {
	if !r.Weighted || r.Trials < 2 {
		return float64(r.Trials)
	}
	n := float64(r.Trials)
	variance := (r.FailWeightSq - r.FailWeight*r.FailWeight/n) / (n - 1)
	if variance <= 0 {
		return n
	}
	p := r.Probability()
	return n * p * (1 - p) / variance
}

// String renders the result in one line. Zero-failure runs print the
// rule-of-three upper bound rather than a misleading "0 ± 0"; weighted
// runs are tagged IS and carry their effective sample size. A Result does
// not record its lifetime, so the line names none: P(fail) is over the
// lifetime the run simulated.
func (r Result) String() string {
	var s string
	switch {
	case r.Trials > 0 && r.Failures == 0:
		s = fmt.Sprintf("%s: P(fail) = 0 (< %.2g at 95%%) (0/%d trials)",
			r.Policy, r.CI95(), r.Trials)
	case r.Weighted:
		s = fmt.Sprintf("%s: P(fail) = %.3g ± %.2g (IS, %d/%d trials, ESS %.1f)",
			r.Policy, r.Probability(), r.CI95(), r.Failures, r.Trials, r.ESS())
	default:
		s = fmt.Sprintf("%s: P(fail) = %.3g ± %.2g (%d/%d trials)",
			r.Policy, r.Probability(), r.CI95(), r.Failures, r.Trials)
	}
	if r.Partial {
		s += " [partial]"
	}
	return s
}

// trialState holds the per-trial simulation state. One trialState serves
// every trial of a worker: the swapper, sparer, correctability state, and
// all slices are pooled and reset between trials, so the steady-state trial
// loop performs no heap allocation (for predicates whose incremental state
// allocates nothing).
type trialState struct {
	cfg       stack.Config
	pol       Policy
	scrub     float64
	swapper   *tsv.Swapper
	sparer    Sparer
	livePerm  []fault.Fault
	liveTrans []fault.Fault
	lastScrub int
	scratch   []fault.Fault
	// inc maintains the correctability verdict (ecc.Begin). It mirrors
	// livePerm+liveTrans exactly: every append pairs with inc.Add, every
	// drop with inc.Remove.
	inc ecc.IncrementalState
	// dropScratch is doScrub's reusable drop-mark buffer (was a per-offer
	// map allocation).
	dropScratch []bool
	// scrubs counts doScrub invocations across every trial run on this
	// state; workers flush it into the run's progress counters.
	scrubs int64
	// tsvUnrepaired counts, within the current trial, TSV faults the
	// swapper saw but could not repair (stand-by budget overflow) — a
	// forensic signal. Plain int: it rides the zero-allocation loop.
	tsvUnrepaired int
	// obs, when non-nil, watches applied arrivals (Policy.NewObserver).
	// Purely passive: it never changes a verdict or the control flow.
	obs Observer
}

func newTrialState(cfg stack.Config, pol Policy, scrub float64) *trialState {
	ts := &trialState{cfg: cfg, pol: pol, scrub: scrub, inc: ecc.Begin(pol.Predicate)}
	if pol.NewObserver != nil {
		ts.obs = pol.NewObserver(cfg)
	}
	ts.reset()
	return ts
}

func (ts *trialState) reset() {
	if ts.pol.UseTSVSwap {
		if ts.swapper != nil {
			ts.swapper.Reset()
		} else if ts.pol.TSVStandbyPool > 0 {
			ts.swapper = tsv.NewSwapperWithPool(ts.cfg, ts.pol.TSVStandbyPool)
		} else {
			ts.swapper = tsv.NewSwapper(ts.cfg)
		}
	} else {
		ts.swapper = nil
	}
	if ts.pol.NewSparer != nil {
		// Reuse the sparer when it supports resetting (DDS does);
		// otherwise rebuild per trial as before.
		if r, ok := ts.sparer.(interface{ Reset() }); ok {
			r.Reset()
		} else {
			ts.sparer = ts.pol.NewSparer(ts.cfg)
		}
	} else {
		ts.sparer = nil
	}
	ts.inc.Reset()
	ts.livePerm = ts.livePerm[:0]
	ts.liveTrans = ts.liveTrans[:0]
	ts.lastScrub = 0
	ts.tsvUnrepaired = 0
}

// doScrub clears correctable transients and offers permanent faults to the
// sparer. Offers repeat until a full pass spares nothing, because sparing
// one fault (e.g. escalating a bank) can spare co-resident faults too.
func (ts *trialState) doScrub() {
	ts.scrubs++
	for _, f := range ts.liveTrans {
		ts.inc.Remove(f)
	}
	ts.liveTrans = ts.liveTrans[:0]
	if ts.sparer == nil {
		return
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(ts.livePerm); i++ {
			spared, extra := ts.sparer.Offer(ts.livePerm[i], ts.livePerm)
			if !spared && len(extra) == 0 {
				continue
			}
			drop := ts.dropScratch[:0]
			for range ts.livePerm {
				drop = append(drop, false)
			}
			ts.dropScratch = drop
			for _, e := range extra {
				drop[e] = true
			}
			if spared {
				drop[i] = true
			}
			kept := ts.livePerm[:0]
			for j, f := range ts.livePerm {
				if drop[j] {
					ts.inc.Remove(f)
					continue
				}
				kept = append(kept, f)
			}
			ts.livePerm = kept
			changed = true
			break // indices shifted; rescan
		}
	}
}

// liveFaults rebuilds the scratch slice of all live faults, permanent
// then transient, for the forensic record of a failed trial.
func (ts *trialState) liveFaults() []fault.Fault {
	ts.scratch = ts.scratch[:0]
	ts.scratch = append(ts.scratch, ts.livePerm...)
	ts.scratch = append(ts.scratch, ts.liveTrans...)
	return ts.scratch
}

// advance is the engine's one arrival loop: it runs one trial's
// time-sorted faults from an empty state, scrubbing (and sparing) at each
// scrub boundary an arrival crosses, offering TSV faults to TSV-SWAP,
// and applying every other arrival to the live set and the
// correctability state. It returns the index of the arrival that made the
// state uncorrectable, with bad set, or -1 when the trial survives.
//
// With level > 0 it also stops, without evaluating it, at the arrival
// that brings the count of live faults to level — multilevel splitting's
// crossing — and returns that index with bad false. The live count rises
// one arrival at a time, so this is its first crossing. It never looks
// past the arrival it stops at.
func (ts *trialState) advance(faults []fault.Fault, level int) (idx int, bad bool) {
	ts.reset()
	for i, f := range faults {
		scrubIdx := int(f.Hours / ts.scrub)
		if scrubIdx > ts.lastScrub {
			ts.doScrub()
			ts.lastScrub = scrubIdx
		}
		if ts.swapper != nil && f.Class.IsTSV() {
			if _, repaired := ts.swapper.Apply(f); repaired {
				continue
			}
			ts.tsvUnrepaired++
		}
		if f.Persistence == fault.Permanent {
			ts.livePerm = append(ts.livePerm, f)
		} else {
			ts.liveTrans = append(ts.liveTrans, f)
		}
		if len(ts.livePerm)+len(ts.liveTrans) == level {
			return i, false
		}
		bad = ts.inc.Add(f)
		if ts.obs != nil {
			ts.obs.Arrival(f, bad)
		}
		if bad {
			return i, true
		}
	}
	return -1, false
}

// run executes one trial; it returns the failure time in hours (negative
// when the system survives) and the proximate cause — the class of the
// fault whose arrival made the state uncorrectable.
func (ts *trialState) run(faults []fault.Fault) (float64, fault.Class) {
	if i, bad := ts.advance(faults, 0); bad {
		return faults[i].Hours, faults[i].Class
	}
	return -1, 0
}

// RunContext estimates the failure probability of a policy, over a fixed
// trial budget or, with opt.TargetFailures set, adaptively (see execute).
// Worker goroutines check ctx between trial blocks (cancelCheckInterval);
// on cancellation the completed trials are merged into a Result marked
// Partial rather than discarded. An arrival source implementing
// ArrivalWeights makes the Result Weighted.
func RunContext(ctx context.Context, opt Options, pol Policy) Result {
	opt = opt.withDefaults()
	years := int(math.Ceil(opt.LifetimeHours / fault.HoursPerYear))
	lanes, trials, failures, err := execute(ctx, opt, pol.name(), func(worker int, src Arrivals) *runLane {
		return newRunLane(&opt, pol, worker, src, years)
	})
	res := Result{
		Policy:         pol.name(),
		Trials:         trials,
		Failures:       failures,
		FailuresByYear: make([]int, years),
		CauseCounts:    make(map[string]int),
		TargetMet:      opt.TargetFailures > 0 && failures >= opt.TargetFailures,
		Partial:        err != nil,
		Err:            err,
	}
	if opt.Forensics {
		res.Breakdown = make(map[string]int)
	}
	// Integer tallies add in any order, and scenario stats sum exactly by
	// contract; they stay nil when no worker produced any, so plain runs
	// keep a nil map. Exemplars and weights depend on trial order, which
	// the lanes do not follow between them, so each is merged by trial
	// index below.
	for _, l := range lanes {
		for i, v := range l.byYear {
			res.FailuresByYear[i] += v
		}
		for k, v := range l.causes {
			res.CauseCounts[k] += v
		}
		for k, v := range l.breakdown {
			res.Breakdown[k] += v
		}
		for k, v := range l.stats {
			if res.ScenarioStats == nil {
				res.ScenarioStats = make(map[string]float64, len(l.stats))
			}
			res.ScenarioStats[k] += v
		}
	}
	if opt.Forensics {
		// Each lane kept its own first MaxExemplars failures, so the
		// run's first MaxExemplars are among them.
		exemplars := make([][]Forensic, len(lanes))
		for i, l := range lanes {
			exemplars[i] = l.exemplars
		}
		mergeByTrial(exemplars, func(f *Forensic) int { return f.Trial }, func(f *Forensic) {
			res.Exemplars = append(res.Exemplars, *f)
		})
		if len(res.Exemplars) > opt.MaxExemplars {
			res.Exemplars = res.Exemplars[:opt.MaxExemplars]
		}
	}
	// Float addition is not associative, so the weights fold one failing
	// trial at a time in trial order rather than as per-worker partial
	// sums, whose bits would depend on which trials each worker ran.
	if len(lanes) > 0 && lanes[0].weights != nil {
		res.Weighted = true
		res.FailWeightByYear = make([]float64, years)
		failed := make([][]weightedFailure, len(lanes))
		for i, l := range lanes {
			failed[i] = l.failed
		}
		mergeByTrial(failed, func(f *weightedFailure) int { return f.trial }, func(f *weightedFailure) {
			res.FailWeight += f.w
			res.FailWeightSq += f.w * f.w
			for i := f.year; i < years; i++ {
				res.FailWeightByYear[i] += f.w
			}
		})
	}
	return res
}

// mergeByTrial visits the items of lists, each already in increasing
// trial order, in increasing trial order across all of them. The lists
// number one per worker, so a linear scan for the smallest head is
// cheaper than a heap.
func mergeByTrial[T any](lists [][]T, trial func(*T) int, visit func(*T)) {
	heads := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || trial(&l[heads[i]]) < trial(&lists[best][heads[best]])) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		visit(&lists[best][heads[best]])
		heads[best]++
	}
}

// runLane is RunContext's per-worker trial body: the pooled trial state
// machine plus the worker's failure tallies.
type runLane struct {
	opt    *Options
	pol    Policy
	worker int
	src    Arrivals
	ts     *trialState
	byYear []int
	causes map[string]int
	// weights is src's likelihood-ratio view under importance sampling,
	// nil for plain sampling; failed records each failing trial's index,
	// weight and failure year, in trial order, for RunContext to fold.
	weights   ArrivalWeights
	failed    []weightedFailure
	breakdown map[string]int
	exemplars []Forensic
	stats     map[string]float64
}

// weightedFailure is one failing trial of an importance-sampled run.
type weightedFailure struct {
	trial int
	w     float64
	year  int
}

func newRunLane(opt *Options, pol Policy, worker int, src Arrivals, years int) *runLane {
	l := &runLane{
		opt:    opt,
		pol:    pol,
		worker: worker,
		src:    src,
		ts:     newTrialState(opt.Config, pol, opt.ScrubIntervalHours),
		byYear: make([]int, years),
		causes: make(map[string]int),
	}
	l.weights, _ = src.(ArrivalWeights)
	if opt.Forensics {
		l.breakdown = make(map[string]int)
	}
	return l
}

func (l *runLane) trial(t int, fs []fault.Fault) bool {
	when, cause := l.ts.run(fs)
	if when < 0 {
		return false
	}
	l.causes[cause.String()]++
	years := len(l.byYear)
	y := int(when / fault.HoursPerYear)
	if y >= years {
		y = years - 1
	}
	if l.weights != nil {
		l.failed = append(l.failed, weightedFailure{t, math.Exp(l.weights.LogWeight(fs)), y})
	}
	for i := y; i < years; i++ {
		l.byYear[i]++
	}
	if tr := l.opt.Trace; tr.Enabled() {
		ev := trace.Event{
			Name: "uncorrectable", Cat: "faultsim", Phase: trace.PhaseInstant,
			TS: tr.Now(), TID: int64(l.worker),
		}
		ev.Args[0] = trace.Arg{Key: "trial", Val: float64(t)}
		ev.Args[1] = trace.Arg{Key: "hours", Val: when}
		ev.Args[2] = trace.Arg{Key: "cause", Str: cause.String()}
		ev.Args[3] = trace.Arg{Key: "runId", Str: l.opt.RunID}
		tr.Emit(ev)
	}
	if l.opt.Forensics {
		l.breakdown[modeKey(l.ts.liveFaults())]++
		if len(l.exemplars) < l.opt.MaxExemplars {
			l.exemplars = append(l.exemplars, captureForensic(*l.opt, l.pol, l.ts, t, when, cause))
		}
	}
	return true
}

func (l *runLane) scrubs() int64 { return l.ts.scrubs }

// finish collects the worker's scenario counters from its arrival source
// and observer.
func (l *runLane) finish() {
	if s, ok := l.src.(ArrivalStats); ok {
		l.stats = make(map[string]float64)
		s.FlushStats(l.stats)
	}
	if l.ts.obs != nil {
		if l.stats == nil {
			l.stats = make(map[string]float64)
		}
		l.ts.obs.FlushStats(l.stats)
	}
}
