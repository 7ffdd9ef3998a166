package faultsim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
)

// skipInShort gates the statistically heavy tests (tens of thousands of
// trials) out of `go test -short`, which the race-enabled tier-1 gate
// uses to stay within CI budget.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy Monte Carlo test skipped in -short mode")
	}
}

// testOptions returns fast options with boosted rates so a few thousand
// trials produce a measurable signal.
func testOptions(trials int, rateScale float64, tsvFIT float64) Options {
	r := fault.Table1()
	r.BitTransient *= rateScale
	r.BitPermanent *= rateScale
	r.WordTransient *= rateScale
	r.WordPermanent *= rateScale
	r.ColumnTransient *= rateScale
	r.ColumnPermanent *= rateScale
	r.RowTransient *= rateScale
	r.RowPermanent *= rateScale
	r.BankTransient *= rateScale
	r.BankPermanent *= rateScale
	r.TSVPerDie = tsvFIT
	return Options{
		Config: stack.DefaultConfig(),
		Rates:  r,
		Trials: trials,
		Seed:   7,
	}
}

func ddsSparer(cfg stack.Config) Sparer { return sparing.New(cfg) }

func TestDeterministicWithSeed(t *testing.T) {
	opt := testOptions(2000, 10, 0)
	opt.Workers = 3
	pol := Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)}
	a := RunContext(context.Background(), opt, pol)
	b := RunContext(context.Background(), opt, pol)
	if a.Failures != b.Failures {
		t.Errorf("same seed produced %d and %d failures", a.Failures, b.Failures)
	}
}

func TestNoProtectionMatchesPoissonRate(t *testing.T) {
	skipInShort(t)
	opt := testOptions(20000, 10, 0)
	pol := Policy{Predicate: ecc.NoProtection{}}
	res := RunContext(context.Background(), opt, pol)
	// P(fail) = P(at least one fault) = 1 - exp(-lambda).
	lambda := opt.Rates.TotalPerDie() * 1e-9 * fault.LifetimeHours *
		float64(opt.Config.Stacks*(opt.Config.DataDies+opt.Config.ECCDies))
	want := 1 - math.Exp(-lambda)
	got := res.Probability()
	if math.Abs(got-want) > 4*res.CI95()+0.01 {
		t.Errorf("P(fail) = %.4f, want ~%.4f", got, want)
	}
}

func TestFailuresByYearMonotone(t *testing.T) {
	skipInShort(t)
	opt := testOptions(5000, 20, 0)
	res := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	if len(res.FailuresByYear) != 7 {
		t.Fatalf("years tracked = %d, want 7", len(res.FailuresByYear))
	}
	for y := 1; y < 7; y++ {
		if res.FailuresByYear[y] < res.FailuresByYear[y-1] {
			t.Errorf("cumulative failures decreased at year %d", y+1)
		}
	}
	if res.FailuresByYear[6] != res.Failures {
		t.Errorf("year-7 cumulative %d != total %d", res.FailuresByYear[6], res.Failures)
	}
}

func TestParityDimensionOrdering(t *testing.T) {
	skipInShort(t)
	// Figure 14's qualitative result: more dimensions, fewer failures.
	opt := testOptions(8000, 40, 0)
	r1 := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	r2 := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.TwoDP)})
	r3 := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	if !(r1.Failures >= r2.Failures && r2.Failures >= r3.Failures) {
		t.Errorf("failures not monotone in dimensions: 1DP=%d 2DP=%d 3DP=%d",
			r1.Failures, r2.Failures, r3.Failures)
	}
	if r1.Failures == 0 {
		t.Error("test signal too weak: 1DP saw no failures")
	}
}

func TestTSVSwapEffectiveness(t *testing.T) {
	skipInShort(t)
	// Figure 9: with TSV-Swap, reliability approaches the no-TSV-fault case
	// even at the highest swept TSV rate.
	opt := testOptions(8000, 1, 1430)
	pred := ecc.NewSymbol8(opt.Config, stack.SameBank)
	noSwap := RunContext(context.Background(), opt, Policy{Name: "no-swap", Predicate: pred})
	withSwap := RunContext(context.Background(), opt, Policy{Name: "swap", Predicate: pred, UseTSVSwap: true})
	optNoTSV := opt
	optNoTSV.Rates.TSVPerDie = 0
	noTSV := RunContext(context.Background(), optNoTSV, Policy{Name: "no-tsv", Predicate: pred})
	if noSwap.Failures <= withSwap.Failures {
		t.Errorf("TSV-Swap did not help: noSwap=%d withSwap=%d", noSwap.Failures, withSwap.Failures)
	}
	// With swap, failures should be within noise of the no-TSV-faults case.
	diff := math.Abs(withSwap.Probability() - noTSV.Probability())
	if diff > 3*(withSwap.CI95()+noTSV.CI95())+0.002 {
		t.Errorf("TSV-Swap (%0.4f) not close to no-TSV baseline (%0.4f)",
			withSwap.Probability(), noTSV.Probability())
	}
}

func TestDDSImprovesOver3DP(t *testing.T) {
	skipInShort(t)
	// Figure 18's qualitative result: sparing prevents permanent-fault
	// accumulation across scrub intervals.
	opt := testOptions(6000, 20, 0)
	p3 := Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)}
	pDDS := Policy{
		Name:      "3DP+DDS",
		Predicate: ecc.NewParity(opt.Config, parity.ThreeDP),
		NewSparer: ddsSparer,
	}
	r3 := RunContext(context.Background(), opt, p3)
	rDDS := RunContext(context.Background(), opt, pDDS)
	if rDDS.Failures >= r3.Failures {
		t.Errorf("DDS did not improve: 3DP=%d 3DP+DDS=%d", r3.Failures, rDDS.Failures)
	}
	if r3.Failures < 20 {
		t.Errorf("test signal too weak: 3DP failures = %d", r3.Failures)
	}
}

func TestStripingReliabilityOrdering(t *testing.T) {
	skipInShort(t)
	// Figure 4's qualitative result: Across-Channels beats Across-Banks
	// beats Same-Bank. The separation is cleanest at a moderate TSV rate
	// (143 FIT): Across-Banks still loses whole lines to every address-TSV
	// fault (rate-proportional) while Across-Channels only fails on fault
	// pairs (rate-squared); at 1430 FIT pair failures blur the two.
	opt := testOptions(20000, 1, 143)
	sb := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewSymbol8(opt.Config, stack.SameBank)})
	ab := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewSymbol8(opt.Config, stack.AcrossBanks)})
	ac := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewSymbol8(opt.Config, stack.AcrossChannels)})
	if !(sb.Failures > ab.Failures && ab.Failures > ac.Failures) {
		t.Errorf("striping order violated: same=%d banks=%d channels=%d",
			sb.Failures, ab.Failures, ac.Failures)
	}
	if ab.Failures < 10 {
		t.Errorf("test signal too weak: across-banks failures = %d", ab.Failures)
	}
}

func TestCitadelBeatsSymbolCode(t *testing.T) {
	skipInShort(t)
	// The headline: TSV-Swap + 3DP + DDS outperforms the striped symbol
	// code at high TSV rates.
	opt := testOptions(6000, 20, 1430)
	symbol := RunContext(context.Background(), opt, Policy{
		Predicate:  ecc.NewSymbol8(opt.Config, stack.AcrossChannels),
		UseTSVSwap: true,
	})
	citadel := RunContext(context.Background(), opt, Policy{
		Name:       "Citadel",
		Predicate:  ecc.NewParity(opt.Config, parity.ThreeDP),
		UseTSVSwap: true,
		NewSparer:  ddsSparer,
	})
	if citadel.Failures >= symbol.Failures {
		t.Errorf("Citadel (%d) not better than symbol code (%d)",
			citadel.Failures, symbol.Failures)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Policy: "x", Trials: 1000, Failures: 10, FailuresByYear: []int{1, 2, 3, 4, 5, 7, 10}}
	if got := r.Probability(); got != 0.01 {
		t.Errorf("Probability = %v", got)
	}
	if got := r.ProbabilityByYear(3); got != 0.003 {
		t.Errorf("ProbabilityByYear(3) = %v", got)
	}
	if got := r.ProbabilityByYear(0); got != 0 {
		t.Errorf("ProbabilityByYear(0) = %v", got)
	}
	if got := r.ProbabilityByYear(8); got != 0 {
		t.Errorf("ProbabilityByYear(8) = %v", got)
	}
	if r.CI95() <= 0 {
		t.Error("CI95 not positive")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
	var zero Result
	if zero.Probability() != 0 || zero.CI95() != 0 {
		t.Error("zero Result accessors should be 0")
	}
}

func TestCensusBimodal(t *testing.T) {
	skipInShort(t)
	opt := testOptions(4000, 100, 0)
	c := RunCensusContext(context.Background(), opt, true)
	if c.FaultyBankTotal() == 0 {
		t.Fatal("census saw no faulty banks")
	}
	// Peaks: small (1 row), sub-array (5200), full bank (rows per bank).
	small := c.RowsHistogram[1]
	sub := c.RowsHistogram[5200]
	full := c.RowsHistogram[opt.Config.RowsPerBank]
	if small == 0 || sub == 0 || full == 0 {
		t.Errorf("expected bimodal peaks, got 1:%d 5200:%d 64K:%d", small, sub, full)
	}
	// The valley between 2 and 5200 should be nearly empty: DDS's key
	// observation. Allow the occasional 5201 (sub-array + row) composite.
	for rows, count := range c.RowsHistogram {
		if rows > 4 && rows < 5200 && count > c.FaultyBankTotal()/100 {
			t.Errorf("unexpected mass at %d rows: %d banks", rows, count)
		}
	}
}

func TestCensusTable3Shape(t *testing.T) {
	skipInShort(t)
	// Real Table-I rates: bank failures are rare enough that one failed
	// bank dominates two.
	opt := testOptions(60000, 1, 0)
	c := RunCensusContext(context.Background(), opt, true)
	if c.TrialsWithBankFailure == 0 {
		t.Fatal("no systems with bank failures")
	}
	p1 := c.FailedBanksPercent(1, false)
	p2 := c.FailedBanksPercent(2, false)
	if p1 <= p2 {
		t.Errorf("P(1 bank)=%.1f%% should exceed P(2 banks)=%.1f%%", p1, p2)
	}
	total := 0.0
	for k := 1; k <= 2; k++ {
		total += c.FailedBanksPercent(k, false)
	}
	total += c.FailedBanksPercent(3, true)
	if math.Abs(total-100) > 0.5 {
		t.Errorf("percentages sum to %.2f, want 100", total)
	}
}

// TestRunAllPreservesOrder: policies run in turn under the same options,
// as a comparison runs them, report in the order given and under their
// predicate's name, unless Policy.Name overrides it.
func TestRunAllPreservesOrder(t *testing.T) {
	opt := testOptions(500, 10, 0)
	pols := []Policy{
		{Predicate: ecc.NoProtection{}},
		{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)},
		{Name: "3DP (named)", Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)},
	}
	var rs []Result
	for _, p := range pols {
		rs = append(rs, RunContext(context.Background(), opt, p))
	}
	if len(rs) != 3 || rs[0].Policy != "None" || rs[1].Policy != "3DP" || rs[2].Policy != "3DP (named)" {
		t.Errorf("order/naming wrong: %+v", rs)
	}
}

func TestScrubClearsTransients(t *testing.T) {
	// Two transient bank faults in different scrub intervals must not
	// collide; simulate directly through trialState.
	cfg := stack.DefaultConfig()
	pol := Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
	ts := newTrialState(cfg, pol, DefaultScrubIntervalHours)
	mkBank := func(die, bank uint32, hours float64) fault.Fault {
		return fault.Fault{
			Class:       fault.Bank,
			Persistence: fault.Transient,
			Hours:       hours,
			Region: fault.Region{
				Stack: 0,
				Die:   fault.ExactPattern(die),
				Bank:  fault.ExactPattern(bank),
				Row:   fault.AllPattern(),
				Col:   fault.AllPattern(),
			},
		}
	}
	// Same scrub interval: two bank faults -> loss.
	if when, _ := ts.run([]fault.Fault{mkBank(0, 0, 1), mkBank(1, 1, 2)}); when < 0 {
		t.Error("two concurrent transient bank faults survived (should fail)")
	}
	// Different scrub intervals: first is corrected and scrubbed.
	if when, _ := ts.run([]fault.Fault{mkBank(0, 0, 1), mkBank(1, 1, 30)}); when >= 0 {
		t.Errorf("transient faults in separate scrub intervals failed at %v", when)
	}
}

// TestResetClearsTransientOnlyTrial: a trial that ends with transient
// faults still live dirties the state as much as one with permanent
// faults, and a TSV-only trial after it must not hide that from the next
// reset. Two transient bank faults in one scrub interval fail 3DP, so a
// leftover bank fault would fail the third trial, which a fresh state
// survives.
func TestResetClearsTransientOnlyTrial(t *testing.T) {
	cfg := stack.DefaultConfig()
	pol := Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP), UseTSVSwap: true, NewSparer: ddsSparer}
	bank := func(die, bank uint32, hours float64) fault.Fault {
		return fault.Fault{
			Class:       fault.Bank,
			Persistence: fault.Transient,
			Hours:       hours,
			Region: fault.Region{
				Stack: 0,
				Die:   fault.ExactPattern(die),
				Bank:  fault.ExactPattern(bank),
				Row:   fault.AllPattern(),
				Col:   fault.AllPattern(),
			},
		}
	}
	tsvOnly := fault.Fault{
		Class:       fault.DataTSV,
		Persistence: fault.Permanent,
		Hours:       1,
		TSV:         5,
		Region: fault.Region{
			Stack: 1,
			Die:   fault.ExactPattern(2),
			Bank:  fault.AllPattern(),
			Row:   fault.AllPattern(),
			Col:   fault.MaskPattern(uint32(cfg.DataTSVs-1), 5),
		},
	}
	ts := newTrialState(cfg, pol, DefaultScrubIntervalHours)
	for i, fs := range [][]fault.Fault{{bank(0, 0, 1)}, {tsvOnly}, {bank(1, 1, 2)}} {
		want, _ := newTrialState(cfg, pol, DefaultScrubIntervalHours).run(fs)
		if got, _ := ts.run(fs); got != want {
			t.Fatalf("trial %d: reused state fails at %v, a fresh one at %v", i, got, want)
		}
	}
}

func TestPermanentFaultsPersistAcrossScrubs(t *testing.T) {
	cfg := stack.DefaultConfig()
	pol := Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
	ts := newTrialState(cfg, pol, DefaultScrubIntervalHours)
	mkBank := func(die, bank uint32, hours float64, p fault.Persistence) fault.Fault {
		return fault.Fault{
			Class:       fault.Bank,
			Persistence: p,
			Hours:       hours,
			Region: fault.Region{
				Stack: 0,
				Die:   fault.ExactPattern(die),
				Bank:  fault.ExactPattern(bank),
				Row:   fault.AllPattern(),
				Col:   fault.AllPattern(),
			},
		}
	}
	// Permanent bank fault then, months later, another: without DDS the
	// first is still live -> loss.
	faults := []fault.Fault{
		mkBank(0, 0, 1, fault.Permanent),
		mkBank(1, 1, 5000, fault.Permanent),
	}
	if when, _ := ts.run(faults); when < 0 {
		t.Error("accumulated permanent bank faults survived without DDS")
	}
	// With DDS the first bank is spared at the next scrub.
	polDDS := pol
	polDDS.NewSparer = ddsSparer
	tsDDS := newTrialState(cfg, polDDS, DefaultScrubIntervalHours)
	if when, _ := tsDDS.run(faults); when >= 0 {
		t.Errorf("DDS failed to spare first bank; lost at %v", when)
	}
}

func TestMergeResults(t *testing.T) {
	a := Result{Policy: "x", Trials: 100, Failures: 3, FailuresByYear: []int{1, 1, 1, 2, 2, 3, 3}}
	b := Result{Policy: "x", Trials: 200, Failures: 1, FailuresByYear: []int{0, 0, 0, 1, 1, 1, 1}}
	m := Merge(a, b)
	if m.Trials != 300 || m.Failures != 4 {
		t.Errorf("merge totals wrong: %+v", m)
	}
	if m.FailuresByYear[6] != 4 || m.FailuresByYear[0] != 1 {
		t.Errorf("merge by-year wrong: %v", m.FailuresByYear)
	}
	if got := m.Probability(); math.Abs(got-4.0/300) > 1e-12 {
		t.Errorf("merged probability %v", got)
	}
}

func TestRunAdaptiveStopsAtTarget(t *testing.T) {
	opt := testOptions(2000, 100, 0)
	opt.TargetFailures, opt.MaxTrials = 10, 20000
	r := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	if r.Failures < 10 {
		t.Errorf("stopped with %d failures (target 10, trials %d)", r.Failures, r.Trials)
	}
	if r.Trials > opt.MaxTrials {
		t.Errorf("exceeded max trials: %d", r.Trials)
	}
}

// TestRunAdaptiveNegativeBatchEnds: a negative batch size (Trials) ends
// the run instead of looping over batches that add no trials.
func TestRunAdaptiveNegativeBatchEnds(t *testing.T) {
	opt := testOptions(-5, 1, 0)
	opt.TargetFailures, opt.MaxTrials = 10, 40000
	done := make(chan Result, 1)
	go func() {
		done <- RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	}()
	select {
	case r := <-done:
		if r.Trials != 0 || r.TargetMet {
			t.Errorf("ran %d trials (target met %v), want none", r.Trials, r.TargetMet)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("adaptive run with a negative batch size did not return within 10 s")
	}
}

func TestRunAdaptiveRespectsCap(t *testing.T) {
	// Citadel at base rates almost never fails: the cap must stop the run.
	opt := testOptions(1000, 1, 0)
	opt.TargetFailures, opt.MaxTrials = 100, 3000
	pol := Policy{
		Predicate: ecc.NewParity(opt.Config, parity.ThreeDP),
		NewSparer: ddsSparer,
	}
	r := RunContext(context.Background(), opt, pol)
	if r.Trials != 3000 {
		t.Errorf("trials = %d, want exactly the 3000 cap", r.Trials)
	}
}

func TestCauseCountsRecorded(t *testing.T) {
	skipInShort(t)
	opt := testOptions(5000, 30, 0)
	res := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	if res.Failures == 0 {
		t.Fatal("no failures to classify")
	}
	total := 0
	for _, n := range res.CauseCounts {
		total += n
	}
	if total != res.Failures {
		t.Errorf("cause counts sum %d != failures %d (%v)", total, res.Failures, res.CauseCounts)
	}
	// 1DP's proximate causes at boosted memory rates must be memory fault
	// classes, not TSVs (rate 0).
	for cause := range res.CauseCounts {
		if cause == "data-tsv" || cause == "addr-tsv" {
			t.Errorf("TSV cause recorded with zero TSV rate: %v", res.CauseCounts)
		}
	}
}

func TestOptionsDefaultsPinned(t *testing.T) {
	// The effective defaults are part of the package contract: trials,
	// scrub cadence, lifetime, and worker clamping must not drift.
	var o Options
	d := o.withDefaults()
	if d.Trials != 100000 {
		t.Errorf("default Trials = %d, want 100000", d.Trials)
	}
	if d.ScrubIntervalHours != DefaultScrubIntervalHours {
		t.Errorf("default ScrubIntervalHours = %v, want %v", d.ScrubIntervalHours, float64(DefaultScrubIntervalHours))
	}
	if d.LifetimeHours != fault.LifetimeHours {
		t.Errorf("default LifetimeHours = %v, want %v", d.LifetimeHours, fault.LifetimeHours)
	}
	max := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -1, -100, max + 1, max + 1000} {
		o := Options{Workers: workers}
		if got := o.withDefaults().Workers; got != max {
			t.Errorf("Workers=%d clamped to %d, want GOMAXPROCS=%d", workers, got, max)
		}
	}
	o2 := Options{Workers: 1}
	if got := o2.withDefaults().Workers; got != 1 {
		t.Errorf("Workers=1 changed to %d", got)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := testOptions(10000, 10, 0)
	res := RunContext(ctx, opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	if !res.Partial {
		t.Error("pre-cancelled run not marked Partial")
	}
	if res.Trials != 0 {
		t.Errorf("pre-cancelled run completed %d trials, want 0", res.Trials)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", res.Err)
	}
}

func TestRunContextMidRunCancel(t *testing.T) {
	// A large run cancelled shortly after start must return promptly with
	// the trials completed so far.
	opt := testOptions(4_000_000, 1, 0)
	opt.Seed = 11
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := RunContext(ctx, opt, Policy{Predicate: ecc.NoProtection{}})
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if !res.Partial {
		t.Fatal("cancelled run not marked Partial")
	}
	if res.Trials <= 0 || res.Trials >= opt.Trials {
		t.Errorf("partial Trials = %d, want in (0, %d)", res.Trials, opt.Trials)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", res.Err)
	}
	// The partial estimate is still an unbiased sample: its failure count
	// must be consistent with the trials that did run.
	if res.Failures > res.Trials {
		t.Errorf("failures %d exceed completed trials %d", res.Failures, res.Trials)
	}
}

func TestRunContextCompleteRunNotPartial(t *testing.T) {
	// A context that is still live when the trial budget finishes must not
	// mark the result partial.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := testOptions(1000, 10, 0)
	res := RunContext(ctx, opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	if res.Partial || res.Err != nil {
		t.Errorf("complete run marked partial: %+v", res)
	}
	if res.Trials != opt.Trials {
		t.Errorf("Trials = %d, want %d", res.Trials, opt.Trials)
	}
}

func TestRunCensusContextCancel(t *testing.T) {
	opt := testOptions(4_000_000, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	c := RunCensusContext(ctx, opt, true)
	if !c.Partial {
		t.Fatal("cancelled census not marked Partial")
	}
	if c.Trials <= 0 || c.Trials >= opt.Trials {
		t.Errorf("partial census Trials = %d, want in (0, %d)", c.Trials, opt.Trials)
	}
}

func TestRunAdaptiveContextCancel(t *testing.T) {
	// Adaptive mode keeps adding batches until the failure target; a
	// cancelled context must stop it within a block with Partial set.
	opt := testOptions(1000, 1, 0)
	opt.TargetFailures = 1_000_000 // unreachable
	opt.MaxTrials = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := RunContext(ctx, opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancelled adaptive run took %v", elapsed)
	}
	if !r.Partial {
		t.Error("cancelled adaptive run not marked Partial")
	}
	if r.Trials <= 0 || r.Trials >= opt.MaxTrials {
		t.Errorf("partial adaptive Trials = %d", r.Trials)
	}
}

func TestMergePropagatesPartial(t *testing.T) {
	a := Result{Policy: "x", Trials: 100, Failures: 1, FailuresByYear: make([]int, 7)}
	b := Result{Policy: "x", Trials: 50, Failures: 1, FailuresByYear: make([]int, 7),
		Partial: true, Err: context.Canceled}
	m := Merge(a, b)
	if !m.Partial {
		t.Error("merge of a partial result not marked Partial")
	}
	if !errors.Is(m.Err, context.Canceled) {
		t.Errorf("merged Err = %v", m.Err)
	}
	m2 := Merge(a, Result{Policy: "x", Trials: 10, FailuresByYear: make([]int, 7)})
	if m2.Partial || m2.Err != nil {
		t.Error("merge of complete results spuriously marked Partial")
	}
}
