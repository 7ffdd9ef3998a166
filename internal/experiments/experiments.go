// Package experiments regenerates every table and figure of the Citadel
// paper's evaluation from the simulators in this repository. Each
// experiment returns a Report with the same rows/series the paper plots;
// cmd/citadel-repro prints them and bench_test.go wraps them as Go
// benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	citadel "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Phase-level metrics, exposed by cmd/citadel-server at GET /metrics.
var (
	mPhases = obs.Default().Counter("citadel_experiments_phases_total",
		"Experiment phases (benchmarks, sweep points, Monte Carlo passes) completed.")
	mPhaseSeconds = obs.Default().Histogram("citadel_experiments_phase_seconds",
		"Wall-clock duration of experiment phases in seconds.",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300})
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string // "table1", "fig14", ...
	Title string
	Text  string // formatted rows, ready to print
	// Partial reports that the experiment was cancelled before finishing:
	// the rows present are valid, but sweep points or benchmarks may be
	// missing and Monte Carlo rows may cover fewer trials than requested.
	Partial bool
}

// Options tunes experiment cost.
type Options struct {
	// Trials is the Monte Carlo trial count for reliability experiments.
	Trials int
	// Requests is the request count for performance experiments.
	Requests int
	// Seed makes every experiment deterministic.
	Seed int64
	// Progress, when non-nil, is called after each completed phase of an
	// experiment — a benchmark, a sweep point, a Monte Carlo pass — so a
	// cancelled run shows how far it got and where the time went.
	Progress func(PhaseEvent)

	// ctx carries the cancellation signal installed by RunContext; nil
	// means context.Background(). Unexported so Options stays a value
	// type constructed by callers with struct literals.
	ctx context.Context
}

// PhaseEvent reports one completed unit of an experiment's work.
type PhaseEvent struct {
	Experiment string // "fig15", "fig4", ...
	Phase      string // benchmark name, sweep point, or pass label
	Elapsed    time.Duration
}

// phase records one completed phase into the global metrics and the
// Progress hook.
func (o Options) phase(experiment, name string, start time.Time) {
	d := time.Since(start)
	mPhases.Inc()
	mPhaseSeconds.Observe(d.Seconds())
	if o.Progress != nil {
		o.Progress(PhaseEvent{Experiment: experiment, Phase: name, Elapsed: d})
	}
}

// context returns the run's cancellation context.
func (o Options) context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// DefaultOptions balances fidelity and runtime (a few minutes for all
// experiments). Increase Trials toward 10^6 for publication-grade curves.
func DefaultOptions() Options {
	return Options{Trials: 100000, Requests: 60000, Seed: 42}
}

// All lists every experiment ID in paper order.
func All() []string {
	return []string{
		"table1", "table2", "fig4", "fig5", "fig9", "fig13", "fig14",
		"fig15", "fig16", "fig17", "table3", "fig18", "fig19", "overhead",
	}
}

// Run dispatches one experiment by ID; it cannot be interrupted (see
// RunContext).
func Run(id string, opt Options) (Report, error) {
	return RunContext(context.Background(), id, opt)
}

// RunContext dispatches one experiment by ID under a context. When ctx
// is cancelled mid-experiment the Report comes back with the rows
// computed so far and Partial set; already-started Monte Carlo runs
// return within one trial batch.
func RunContext(ctx context.Context, id string, opt Options) (Report, error) {
	if opt.Trials < 0 {
		return Report{}, fmt.Errorf("experiments: trials must be non-negative, got %d", opt.Trials)
	}
	opt.ctx = ctx
	switch id {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(), nil
	case "fig4":
		return Fig4(opt), nil
	case "fig5":
		return Fig5(opt), nil
	case "fig9":
		return Fig9(opt), nil
	case "fig13":
		return Fig13(opt), nil
	case "fig14":
		return Fig14(opt), nil
	case "fig15":
		return Fig15(opt), nil
	case "fig16":
		return Fig16(opt), nil
	case "fig17":
		return Fig17(opt), nil
	case "table3":
		return Table3(opt), nil
	case "fig18":
		return Fig18(opt), nil
	case "fig19":
		return Fig19(opt), nil
	case "overhead":
		return Overhead(), nil
	default:
		if rep, ok := runAblation(id, opt); ok {
			return rep, nil
		}
		return Report{}, fmt.Errorf("experiments: unknown id %q (want one of %v or ablations %v)",
			id, All(), Ablations())
	}
}

// Table1 prints the scaled FIT rates (paper Table I).
func Table1() Report {
	r := citadel.Table1Rates()
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "Failure mode", "Transient", "Permanent")
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f\n", "Single bit", r.BitTransient, r.BitPermanent)
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f\n", "Single word", r.WordTransient, r.WordPermanent)
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f\n", "Single column", r.ColumnTransient, r.ColumnPermanent)
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f\n", "Single row", r.RowTransient, r.RowPermanent)
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f\n", "Single bank", r.BankTransient, r.BankPermanent)
	fmt.Fprintf(&b, "%-18s %25s\n", "TSV", "sweep: 14 - 1430 FIT/die")
	return Report{ID: "table1", Title: "Table I: stacked memory failure rates (8Gb dies, FIT)", Text: b.String()}
}

// Table2 prints the baseline system configuration (paper Table II).
func Table2() Report {
	cfg := citadel.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Cores                    8 @ 3.2 GHz\n")
	fmt.Fprintf(&b, "L3 (shared)              8MB, 8-way, 64B lines\n")
	fmt.Fprintf(&b, "DRAM                     %dx%dGB 3D stacks\n", cfg.Stacks, cfg.StackBytes()>>30)
	fmt.Fprintf(&b, "Channels per stack       %d (1 per die)\n", cfg.Channels())
	fmt.Fprintf(&b, "Banks per channel        %d\n", cfg.BanksPerDie)
	fmt.Fprintf(&b, "Rows per bank            %d\n", cfg.RowsPerBank)
	fmt.Fprintf(&b, "Row buffer               %d B\n", cfg.RowBytes)
	fmt.Fprintf(&b, "Data TSVs per channel    %d\n", cfg.DataTSVs)
	fmt.Fprintf(&b, "Addr TSVs per channel    %d\n", cfg.AddrTSVs)
	fmt.Fprintf(&b, "Timing (tWTR-tCAS-tRCD-tRP-tRAS)  7-9-9-9-36 @ 800 MHz\n")
	return Report{ID: "table2", Title: "Table II: baseline system configuration", Text: b.String()}
}

// relOpts builds reliability options.
func relOpts(opt Options, tsvFIT float64, swap bool) citadel.ReliabilityOptions {
	return citadel.ReliabilityOptions{
		Rates:   citadel.Table1Rates().WithTSV(tsvFIT),
		Trials:  opt.Trials,
		TSVSwap: swap,
		Seed:    opt.Seed,
	}
}

// simulate runs one reliability study under the experiment's context. A
// cancelled run comes back Partial. RunContext has rejected a negative
// Trials, so an error can only mean an unregistered scheme constant — a
// bug, hence the panic.
func simulate(opt Options, o citadel.ReliabilityOptions, scheme citadel.Scheme) citadel.Result {
	res, err := citadel.Simulate(opt.context(), o, scheme)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", scheme, err))
	}
	return res
}

// compare runs several schemes under identical options, in order. Once
// the context is cancelled, the in-flight scheme returns a partial Result
// and the remaining schemes return at once with zero trials, all marked
// Partial.
func compare(opt Options, o citadel.ReliabilityOptions, schemes ...citadel.Scheme) []citadel.Result {
	out := make([]citadel.Result, len(schemes))
	for i, s := range schemes {
		out[i] = simulate(opt, o, s)
	}
	return out
}

// Fig4 sweeps TSV FIT rates for the symbol code under the three stripings.
func Fig4(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "fig4", Title: "Figure 4: striping vs reliability (8-bit symbol code), P(system failure, 7y)"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-24s %-24s %-24s\n", "TSV FIT/die",
		"Symbol8/Same-Bank", "Symbol8/Across-Banks", "Symbol8/Across-Channels")
	for _, fit := range []float64{0, 14, 143, 1430} {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		phaseStart := time.Now()
		o := relOpts(opt, fit, false)
		rs := compare(opt, o,
			citadel.SchemeSymbol8SameBank,
			citadel.SchemeSymbol8AcrossBanks,
			citadel.SchemeSymbol8AcrossChannels)
		rep.Partial = rep.Partial || anyPartial(rs)
		fmt.Fprintf(&b, "%-12.0f %-24s %-24s %-24s\n", fit,
			probString(rs[0]), probString(rs[1]), probString(rs[2]))
		opt.phase("fig4", fmt.Sprintf("tsv-fit=%.0f", fit), phaseStart)
	}
	rep.Text = b.String()
	return rep
}

// anyPartial reports whether any result in rs was cut short.
func anyPartial(rs []citadel.Result) bool {
	for _, r := range rs {
		if r.Partial {
			return true
		}
	}
	return false
}

// probString formats a failure probability with its resolution floor.
func probString(r citadel.Result) string {
	if r.Trials == 0 {
		return "n/a" // run cancelled before any trial completed
	}
	if r.Failures == 0 {
		return fmt.Sprintf("<%.1e", 1/float64(r.Trials))
	}
	return fmt.Sprintf("%.2e", r.Probability())
}

// geomeanPerf runs every benchmark under a configuration and returns the
// geometric means of normalized execution time and normalized power.
// Cancellation stops after the current benchmark; the means then cover
// the benchmarks finished so far (partial=true), or come back 1.0 when
// none finished.
func geomeanPerf(opt Options, id string, striping citadel.Striping, prot citadel.Protection) (exec, power float64, partial bool) {
	ctx := opt.context()
	var ge, gp float64
	n := 0
	for _, prof := range citadel.Benchmarks() {
		if ctx.Err() != nil {
			partial = true
			break
		}
		phaseStart := time.Now()
		base := citadel.SimulatePerformanceContext(ctx, prof, citadel.PerfOptions{Requests: opt.Requests, Seed: opt.Seed})
		run := citadel.SimulatePerformanceContext(ctx, prof, citadel.PerfOptions{
			Striping: striping, Protection: prot, Requests: opt.Requests, Seed: opt.Seed,
		})
		if base.Partial || run.Partial || base.Cycles == 0 {
			// Only complete benchmark runs enter the mean: a truncated
			// run's cycle count is not comparable to a full one.
			partial = true
			break
		}
		ge += math.Log(float64(run.Cycles) / float64(base.Cycles))
		gp += math.Log(run.ActivePowerWatts / base.ActivePowerWatts)
		n++
		opt.phase(id, fmt.Sprintf("%s/%s", striping, prof.Name), phaseStart)
	}
	if n == 0 {
		return 1, 1, true
	}
	return math.Exp(ge / float64(n)), math.Exp(gp / float64(n)), partial
}

// Fig5 reports the execution-time and power cost of striping.
func Fig5(opt Options) Report {
	rep := Report{ID: "fig5", Title: "Figure 5: impact of data striping on performance and power (GMEAN, 38 workloads)"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %22s %22s\n", "Mapping", "Norm. execution time", "Norm. active power")
	fmt.Fprintf(&b, "%-18s %22.3f %22.2f\n", "Same-Bank", 1.0, 1.0)
	for _, s := range []citadel.Striping{citadel.AcrossBanks, citadel.AcrossChannels} {
		e, p, partial := geomeanPerf(opt, "fig5", s, citadel.NoProtection)
		rep.Partial = rep.Partial || partial
		fmt.Fprintf(&b, "%-18s %22.3f %22.2f\n", s, e, p)
	}
	rep.Text = b.String()
	return rep
}

// Fig9 shows TSV-SWAP effectiveness at the highest swept TSV rate.
func Fig9(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "fig9", Title: "Figure 9: TSV-SWAP effectiveness (TSV rate 1430 FIT/die), P(system failure, 7y)"}
	var b strings.Builder
	schemes := []citadel.Scheme{
		citadel.SchemeSymbol8SameBank,
		citadel.SchemeSymbol8AcrossBanks,
		citadel.SchemeSymbol8AcrossChannels,
	}
	fmt.Fprintf(&b, "%-26s %-16s %-16s %-16s\n", "Mapping", "No TSV-Swap", "With TSV-Swap", "No TSV faults")
	for _, s := range schemes {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		phaseStart := time.Now()
		noSwap := simulate(opt, relOpts(opt, 1430, false), s)
		withSwap := simulate(opt, relOpts(opt, 1430, true), s)
		noTSV := simulate(opt, relOpts(opt, 0, false), s)
		rep.Partial = rep.Partial || noSwap.Partial || withSwap.Partial || noTSV.Partial
		fmt.Fprintf(&b, "%-26s %-16s %-16s %-16s\n", s,
			probString(noSwap), probString(withSwap), probString(noTSV))
		opt.phase("fig9", s.String(), phaseStart)
	}
	rep.Text = b.String()
	return rep
}

// Fig13 reports the parity-caching hit rate per suite.
func Fig13(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "fig13", Title: "Figure 13: LLC hit rate for Dimension-1 parity caching"}
	suiteSum := map[workload.Suite]float64{}
	suiteN := map[workload.Suite]int{}
	for _, prof := range citadel.Benchmarks() {
		phaseStart := time.Now()
		r := citadel.MeasureParityCachingContext(ctx, prof, opt.Requests*3, opt.Seed)
		if r.Partial {
			// A truncated measurement would skew its suite's average.
			rep.Partial = true
			break
		}
		suiteSum[prof.Suite] += r.HitRate()
		suiteN[prof.Suite]++
		opt.phase("fig13", prof.Name, phaseStart)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %18s\n", "Suite", "Parity hit rate")
	var mean float64
	var n int
	for _, s := range workload.Suites() {
		if suiteN[s] == 0 {
			continue // suite not reached before cancellation
		}
		avg := suiteSum[s] / float64(suiteN[s])
		fmt.Fprintf(&b, "%-12s %17.1f%%\n", s, 100*avg)
		mean += suiteSum[s]
		n += suiteN[s]
	}
	if n > 0 {
		fmt.Fprintf(&b, "%-12s %17.1f%%\n", "GMEAN", 100*mean/float64(n))
	}
	rep.Text = b.String()
	return rep
}

// yearCurves renders cumulative failure probabilities for years 1..7 as a
// table plus a log-scale ASCII chart.
func yearCurves(b *strings.Builder, rs []citadel.Result) {
	defer func() {
		labels := make([]string, 7)
		for y := range labels {
			labels[y] = fmt.Sprintf("y%d", y+1)
		}
		ch := newChart(labels)
		for _, r := range rs {
			vals := make([]float64, 7)
			for y := 1; y <= 7; y++ {
				vals[y-1] = r.ProbabilityByYear(y)
			}
			ch.add(r.Policy, vals)
		}
		fmt.Fprintf(b, "\n%s", ch.render(12))
	}()
	fmt.Fprintf(b, "%-28s", "Scheme \\ Year")
	for y := 1; y <= 7; y++ {
		fmt.Fprintf(b, " %10d", y)
	}
	fmt.Fprintln(b)
	for _, r := range rs {
		fmt.Fprintf(b, "%-28s", r.Policy)
		for y := 1; y <= 7; y++ {
			p := r.ProbabilityByYear(y)
			switch {
			case r.Trials == 0:
				fmt.Fprintf(b, " %10s", "n/a")
			case p == 0:
				fmt.Fprintf(b, " %10s", fmt.Sprintf("<%.0e", 1/float64(r.Trials)))
			default:
				fmt.Fprintf(b, " %10.2e", p)
			}
		}
		fmt.Fprintln(b)
	}
}

// Fig14 compares 1DP/2DP/3DP against the striped symbol code over years.
func Fig14(opt Options) Report {
	phaseStart := time.Now()
	o := relOpts(opt, 0, true) // all systems employ TSV-Swap (paper §V-D)
	rs := compare(opt, o,
		citadel.SchemeSymbol8AcrossChannels,
		citadel.Scheme1DP, citadel.Scheme2DP, citadel.Scheme3DP)
	opt.phase("fig14", "monte-carlo", phaseStart)
	var b strings.Builder
	yearCurves(&b, rs)
	if rs[3].Failures > 0 {
		fmt.Fprintf(&b, "\n3DP vs symbol code ratio at year 7: %.2fx\n",
			rs[0].Probability()/rs[3].Probability())
		fmt.Fprintf(&b, "(see EXPERIMENTS.md: the paper books symbol-code failures at device\n")
		fmt.Fprintf(&b, " granularity, which inflates them ~7x relative to the exact RS(72,64)\n")
		fmt.Fprintf(&b, " capability modeled here)\n")
	}
	return Report{ID: "fig14", Title: "Figure 14: resilience of multi-dimensional parity (no DDS)", Text: b.String(), Partial: anyPartial(rs)}
}

// Fig15 reports per-benchmark normalized execution time.
func Fig15(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "fig15", Title: "Figure 15: normalized execution time (baseline = Same-Bank, no protection)"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %14s %16s\n",
		"Benchmark", "3DP", "3DP-no-cache", "Across-Banks", "Across-Channels")
	type accum struct{ g3, g3n, gab, gac float64 }
	var sum accum
	n := 0
	for _, prof := range citadel.Benchmarks() {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		phaseStart := time.Now()
		base := citadel.SimulatePerformance(prof, citadel.PerfOptions{Requests: opt.Requests, Seed: opt.Seed})
		get := func(s citadel.Striping, p citadel.Protection) float64 {
			r := citadel.SimulatePerformance(prof, citadel.PerfOptions{
				Striping: s, Protection: p, Requests: opt.Requests, Seed: opt.Seed,
			})
			return float64(r.Cycles) / float64(base.Cycles)
		}
		d3 := get(citadel.SameBank, citadel.Protection3DP)
		d3n := get(citadel.SameBank, citadel.Protection3DPNoCache)
		ab := get(citadel.AcrossBanks, citadel.NoProtection)
		ac := get(citadel.AcrossChannels, citadel.NoProtection)
		fmt.Fprintf(&b, "%-12s %10.3f %14.3f %14.3f %16.3f\n", prof.Name, d3, d3n, ab, ac)
		sum.g3 += math.Log(d3)
		sum.g3n += math.Log(d3n)
		sum.gab += math.Log(ab)
		sum.gac += math.Log(ac)
		n++
		opt.phase("fig15", prof.Name, phaseStart)
	}
	if n > 0 {
		e := func(x float64) float64 { return math.Exp(x / float64(n)) }
		fmt.Fprintf(&b, "%-12s %10.3f %14.3f %14.3f %16.3f\n", "GMEAN",
			e(sum.g3), e(sum.g3n), e(sum.gab), e(sum.gac))
	}
	rep.Text = b.String()
	return rep
}

// Fig16 reports per-suite normalized active power.
func Fig16(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "fig16", Title: "Figure 16: normalized active power (baseline = Same-Bank, no protection)"}
	type accum struct {
		d3, ab, ac float64
		n          int
	}
	bySuite := map[workload.Suite]*accum{}
	var total accum
	for _, prof := range citadel.Benchmarks() {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		phaseStart := time.Now()
		base := citadel.SimulatePerformance(prof, citadel.PerfOptions{Requests: opt.Requests, Seed: opt.Seed})
		get := func(s citadel.Striping, p citadel.Protection) float64 {
			r := citadel.SimulatePerformance(prof, citadel.PerfOptions{
				Striping: s, Protection: p, Requests: opt.Requests, Seed: opt.Seed,
			})
			return r.ActivePowerWatts / base.ActivePowerWatts
		}
		a := bySuite[prof.Suite]
		if a == nil {
			a = &accum{}
			bySuite[prof.Suite] = a
		}
		d3, ab, ac := math.Log(get(citadel.SameBank, citadel.Protection3DP)),
			math.Log(get(citadel.AcrossBanks, citadel.NoProtection)),
			math.Log(get(citadel.AcrossChannels, citadel.NoProtection))
		a.d3 += d3
		a.ab += ab
		a.ac += ac
		a.n++
		total.d3 += d3
		total.ab += ab
		total.ac += ac
		total.n++
		opt.phase("fig16", prof.Name, phaseStart)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %14s %16s\n", "Suite", "3DP", "Across-Banks", "Across-Channels")
	row := func(name string, a *accum) {
		if a == nil || a.n == 0 {
			return // suite not reached before cancellation
		}
		e := func(x float64) float64 { return math.Exp(x / float64(a.n)) }
		fmt.Fprintf(&b, "%-12s %8.2f %14.2f %16.2f\n", name, e(a.d3), e(a.ab), e(a.ac))
	}
	for _, s := range workload.Suites() {
		row(s.String(), bySuite[s])
	}
	row("GMEAN", &total)
	rep.Text = b.String()
	return rep
}

// Fig17 reports the bimodal rows-needed-for-sparing distribution.
func Fig17(opt Options) Report {
	// Boost rates to gather enough faulty banks quickly; the *distribution*
	// is rate-independent (each fault's footprint is what it is).
	o := relOpts(opt, 0, true)
	o.Rates.BitPermanent *= 50
	o.Rates.WordPermanent *= 50
	o.Rates.ColumnPermanent *= 50
	o.Rates.RowPermanent *= 50
	o.Rates.BankPermanent *= 50
	phaseStart := time.Now()
	c := citadel.RunFaultCensus(opt.context(), o)
	opt.phase("fig17", "census", phaseStart)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %10s\n", "Rows needed for sparing", "Faulty banks", "Percent")
	for _, rows := range c.SortedRowCounts() {
		fmt.Fprintf(&b, "%-24d %12d %9.3f%%\n", rows, c.RowsHistogram[rows], c.RowsPercent(rows))
	}
	fmt.Fprintf(&b, "\nfine-grained (<=4 rows): %.2f%%   coarse-grained (>4 rows): %.2f%%\n",
		pctBelow(c, 5), 100-pctBelow(c, 5))
	return Report{ID: "fig17", Title: "Figure 17: permanent faults are bimodal (rows per faulty bank)", Text: b.String(), Partial: c.Partial}
}

func pctBelow(c citadel.FaultCensus, limit int) float64 {
	total, small := 0, 0
	for rows, n := range c.RowsHistogram {
		total += n
		if rows < limit {
			small += n
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(small) / float64(total)
}

// Table3 reports the failed-banks-per-system distribution.
func Table3(opt Options) Report {
	o := relOpts(opt, 0, true)
	phaseStart := time.Now()
	c := citadel.RunFaultCensus(opt.context(), o)
	opt.phase("table3", "census", phaseStart)
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s\n", "Num faulty banks", "Probability")
	fmt.Fprintf(&b, "%-18d %11.2f%%\n", 1, c.FailedBanksPercent(1, false))
	fmt.Fprintf(&b, "%-18d %11.2f%%\n", 2, c.FailedBanksPercent(2, false))
	fmt.Fprintf(&b, "%-18s %11.2f%%\n", "3+", c.FailedBanksPercent(3, true))
	fmt.Fprintf(&b, "\n(systems with >=1 failed bank: %d of %d trials)\n",
		c.TrialsWithBankFailure, c.Trials)
	return Report{ID: "table3", Title: "Table III: number of failed banks, for systems with >=1 bank failure", Text: b.String(), Partial: c.Partial}
}

// Fig18 compares 3DP and 3DP+DDS against the striped symbol code.
func Fig18(opt Options) Report {
	o := relOpts(opt, 0, true)
	phaseStart := time.Now()
	rs := compare(opt, o,
		citadel.SchemeSymbol8AcrossChannels,
		citadel.Scheme3DP,
		citadel.Scheme3DPDDS)
	opt.phase("fig18", "monte-carlo", phaseStart)
	var b strings.Builder
	yearCurves(&b, rs)
	if rs[2].Failures > 0 {
		fmt.Fprintf(&b, "\n3DP+DDS vs symbol code improvement at year 7: %.0fx\n",
			rs[0].Probability()/rs[2].Probability())
	} else if rs[2].Trials > 0 {
		fmt.Fprintf(&b, "\n3DP+DDS vs symbol code improvement at year 7: >%.0fx\n",
			rs[0].Probability()*float64(rs[2].Trials))
	}
	return Report{ID: "fig18", Title: "Figure 18: resilience of 3DP+DDS vs symbol-based striping", Text: b.String(), Partial: anyPartial(rs)}
}

// Fig19 compares Citadel with 6EC7ED and RAID-5 (no TSV faults).
func Fig19(opt Options) Report {
	o := relOpts(opt, 0, false)
	phaseStart := time.Now()
	rs := compare(opt, o,
		citadel.SchemeBCH6EC7ED,
		citadel.SchemeRAID5,
		citadel.Scheme3DPDDS)
	opt.phase("fig19", "monte-carlo", phaseStart)
	rs[2].Policy = "Citadel"
	var b strings.Builder
	yearCurves(&b, rs)
	if rs[1].Failures > 0 && rs[0].Failures > 0 {
		fmt.Fprintf(&b, "\nRAID-5 vs 6EC7ED improvement: %.0fx\n", rs[0].Probability()/rs[1].Probability())
	}
	return Report{ID: "fig19", Title: "Figure 19: Citadel vs 6EC7ED and RAID-5 (no TSV faults)", Text: b.String(), Partial: anyPartial(rs)}
}

// Overhead reports Citadel's storage accounting (paper §VII-E).
func Overhead() Report {
	cfg := citadel.DefaultConfig()
	ov := citadel.ComputeStorageOverhead(cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "Metadata die            %.1f%% (one extra die per %d data dies)\n",
		100*ov.MetadataFraction, cfg.DataDies)
	fmt.Fprintf(&b, "Dimension-1 parity bank %.1f%% (1 of %d banks)\n",
		100*ov.ParityBankFraction, cfg.DataDies*cfg.BanksPerDie)
	fmt.Fprintf(&b, "Total DRAM overhead     %.1f%% (ECC-DIMM: 12.5%%)\n", 100*ov.Total())
	fmt.Fprintf(&b, "On-chip SRAM            %d KB (Dim-2/3 parity rows + RRT/BRT)\n", ov.SRAMBytes/1024)
	return Report{ID: "overhead", Title: "Storage overhead of Citadel (paper section VII-E)", Text: b.String()}
}
