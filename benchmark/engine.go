package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	citadel "repro"
)

// engineWorkload runs back-to-back reliability campaigns through the
// public engine entry point, citadel.SimulateScenarioReliabilityContext.
// Campaign i of a run draws from its own seed, so a run's trials are all
// distinct and its statistics can be checked against a reference.
type engineWorkload struct {
	scheme string
	rates  citadel.FITRates
	trials int // per campaign
	ref    reference
}

// reference holds statistics measured once over at least ten times a
// run's trials (README "Reference values"; regenerate with --reference).
type reference struct {
	pFail          float64
	scrubsPerTrial float64
	// poisson checks the failure count against a Poisson interval instead
	// of a normal z-test: the failure probability is too small for one.
	poisson bool
}

var engineCitadel = engineWorkload{
	scheme: "Citadel",
	rates:  citadel.Table1Rates().WithTSV(1430),
	trials: 40000,
	// 262 failures in 200M trials, seed 7.
	ref: reference{pFail: 1.31e-06, scrubsPerTrial: 1.855231, poisson: true},
}

var engineMultifault = engineWorkload{
	scheme: "3DP+DDS",
	rates:  scaleRates(citadel.Table1Rates(), 20),
	trials: 8000,
	// 40M trials, seed 7.
	ref: reference{pFail: 0.0360555, scrubsPerTrial: 8.951100},
}

// scaleRates multiplies every fault class's FIT rate by k.
func scaleRates(r citadel.FITRates, k float64) citadel.FITRates {
	for _, p := range []*float64{
		&r.BitTransient, &r.BitPermanent, &r.WordTransient, &r.WordPermanent,
		&r.ColumnTransient, &r.ColumnPermanent, &r.RowTransient, &r.RowPermanent,
		&r.BankTransient, &r.BankPermanent, &r.TSVPerDie,
	} {
		*p *= k
	}
	return r
}

// engineCampaign is one finished campaign.
type engineCampaign struct {
	res    citadel.Result
	scrubs int64 // scrub passes, from the engine's final progress snapshot
	dur    time.Duration
	scale  float64 // hostScale just before the campaign
	traced bool
}

// refMs is the campaign's time scaled to the reference host's speed.
func (c engineCampaign) refMs() float64 { return ms(c.dur) * c.scale }

// timedCampaign calibrates the host's speed and then runs the campaign.
func (w engineWorkload) timedCampaign(ctx context.Context, seed int64, trials int, traced bool) (engineCampaign, error) {
	scale := hostScale()
	c, err := w.campaign(ctx, seed, trials, traced)
	c.scale = scale
	return c, err
}

// campaign runs one campaign; traced routes it through the timed plugins.
func (w engineWorkload) campaign(ctx context.Context, seed int64, trials int, traced bool) (engineCampaign, error) {
	var c engineCampaign
	scheme, model := w.scheme, ""
	if traced {
		scheme, model = tracedPrefix+w.scheme, tracedModel
	}
	opts := citadel.ReliabilityOptions{
		Rates:              w.rates,
		Trials:             trials,
		LifetimeYears:      7,
		ScrubIntervalHours: 12,
		Seed:               seed,
		Workers:            engineWorkers,
		FaultModel:         model,
		// Only the final snapshot matters; it is delivered before the call
		// returns, on the calling goroutine.
		ProgressInterval: time.Hour,
		Progress: func(p citadel.RunProgress) {
			if p.Done {
				c.scrubs = p.ScrubPasses
			}
		},
	}
	start := time.Now()
	res, err := citadel.SimulateScenarioReliabilityContext(ctx, opts, scheme)
	c.dur, c.res, c.traced = time.Since(start), res, traced
	return c, err
}

func (w engineWorkload) run(ctx context.Context, cfg runConfig, r *report) {
	trials := cfg.trials(w.trials)
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		c, err := w.timedCampaign(ctx, splitmix(cfg.seed, warmupStream), trials, false)
		r.check(err == nil && !c.res.Partial, "warm-up campaign: err=%v partial=%v", err, c.res.Partial)
		setups = append(setups, c.refMs()/1000)
	}

	var (
		campaigns []engineCampaign
		tr        *tracer
		mallocs   uint64
		untraced  int
		start     = time.Now()
		traceAt   = start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		end       = traceAt
		hardEnd   = start.Add(cfg.size.hardLimit)
	)
	if cfg.trace {
		// The traced run measures the untraced loop for the first half, for
		// trace_overhead_pct, and the traced loop for the second.
		traceAt = start.Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	}
	var mem runtime.MemStats
	for i := 0; ; i++ {
		now := time.Now()
		if now.After(hardEnd) || (now.After(end) && i >= cfg.size.minCampaigns) {
			break
		}
		if cfg.trace && tr == nil && now.After(traceAt) {
			tr = newTracer(cfg)
			activeTracer.Store(tr)
		}
		// The traced run counts allocations over its untraced campaigns.
		countAllocs := cfg.trace && tr == nil
		var before uint64
		if countAllocs {
			runtime.ReadMemStats(&mem)
			before = mem.Mallocs
		}
		c, err := w.timedCampaign(ctx, splitmix(cfg.seed, campaignStream(0)+uint64(i)), trials, tr != nil)
		if countAllocs {
			runtime.ReadMemStats(&mem)
			mallocs += mem.Mallocs - before
			untraced += c.res.Trials
		}
		switch {
		case err != nil:
			r.ops.fail(failJob, "campaign %d: %v", i, err)
			continue
		case c.res.Partial || c.res.Trials != trials:
			r.ops.fail(failJob, "campaign %d: %d/%d trials, partial=%v", i, c.res.Trials, trials, c.res.Partial)
			continue
		}
		r.ops.ok()
		causes := 0
		for _, n := range c.res.CauseCounts {
			causes += n
		}
		r.check(causes == c.res.Failures, "campaign %d: CauseCounts sum to %d, Failures is %d", i, causes, c.res.Failures)
		if i < cfg.size.minCampaigns {
			r.digestItem(fmt.Sprintf("campaign %d", i), c.res)
			r.digestItem(fmt.Sprintf("campaign %d scrubs", i), c.scrubs)
		}
		campaigns = append(campaigns, c)
	}
	activeTracer.Store(nil)
	r.check(len(campaigns) >= cfg.size.minCampaigns, "only %d of %d campaigns completed", len(campaigns), cfg.size.minCampaigns)
	if len(campaigns) == 0 {
		return
	}

	// Repeating campaign 0 must reproduce it bit for bit; in the traced
	// run the repeat goes through the timed plugins, so this also checks
	// that tracing is passive.
	if tr != nil {
		activeTracer.Store(tr)
	}
	again, err := w.campaign(ctx, splitmix(cfg.seed, campaignStream(0)), trials, tr != nil)
	activeTracer.Store(nil)
	r.check(err == nil && reflect.DeepEqual(again.res, campaigns[0].res) && again.scrubs == campaigns[0].scrubs,
		"repeating campaign 0 changed its result (err=%v)", err)
	w.checkStatistics(r, campaigns)

	var lat, tps, tracedTPS, rawMs, speed []float64
	for _, c := range campaigns {
		rate := float64(c.res.Trials) / (c.refMs() / 1000)
		if c.traced {
			tracedTPS = append(tracedTPS, rate)
			continue
		}
		lat = append(lat, c.refMs())
		tps = append(tps, rate)
		rawMs = append(rawMs, ms(c.dur))
		speed = append(speed, c.scale)
	}
	if !cfg.trace {
		r.set("trials_per_s", median(tps), len(tps))
		r.setLatency(lat)
		r.set("setup_s", median(setups), len(setups))
		r.note("unscaled host time: campaign p50 %.6g ms, %.6g trials/s; host speed %.3f of the reference",
			median(rawMs), float64(trials)/median(rawMs)*1000, median(speed))
		return
	}

	tr.engineLayers(r)
	var scrubs, total int64
	results := make([]citadel.Result, 0, len(campaigns))
	for _, c := range campaigns {
		scrubs += c.scrubs
		total += int64(c.res.Trials)
		results = append(results, c.res)
	}
	r.set("faultsim.scrub_passes_per_trial", ratio(float64(scrubs), float64(total)), int(total))
	r.set("faultsim.allocs_per_ktrial", ratio(float64(mallocs)*1000, float64(untraced)), untraced)
	replayMerge(r, [][]citadel.Result{results})
	replayStore(r, cfg.scratch, payloadsOf(r, results))
	r.set("trace_overhead_pct", (ratio(median(tps), median(tracedTPS))-1)*100, len(tracedTPS))
	r.note("trials_per_s untraced %.6g (n=%d), traced %.6g (n=%d)", median(tps), len(tps), median(tracedTPS), len(tracedTPS))
	writeTrace(r, tr, cfg)
}

// checkStatistics compares the run's failure probability and scrub rate
// with the workload's reference. The checks are statistical, so a change
// that resamples trials still passes them while the digest changes.
func (w engineWorkload) checkStatistics(r *report, campaigns []engineCampaign) {
	var n, fails, scrubs float64
	for _, c := range campaigns {
		n += float64(c.res.Trials)
		fails += float64(c.res.Failures)
		scrubs += float64(c.scrubs)
	}
	ref := w.ref
	if ref.poisson {
		lo, hi := poissonInterval(n*ref.pFail, 1e-4)
		r.check(fails >= lo && fails <= hi,
			"%g failures in %g trials: outside [%g, %g], the 1e-4 Poisson interval around P(fail)=%g",
			fails, n, lo, hi, ref.pFail)
	} else {
		z := (fails/n - ref.pFail) / math.Sqrt(ref.pFail*(1-ref.pFail)/n)
		r.check(math.Abs(z) < 5, "P(fail)=%g over %g trials is %.1f standard errors from %g", fails/n, n, z, ref.pFail)
	}
	// ±1% of the reference, widened to five standard errors (taking the
	// per-trial count as Poisson) for short runs.
	tol := math.Max(0.01*ref.scrubsPerTrial, 5*math.Sqrt(ref.scrubsPerTrial/n))
	r.check(math.Abs(scrubs/n-ref.scrubsPerTrial) <= tol,
		"%.5f scrub passes per trial, reference %.5f ± %.5f", scrubs/n, ref.scrubsPerTrial, tol)
}

// poissonInterval returns the smallest and largest counts k with
// P(X <= k) and P(X >= k) both at least alpha/2 for X ~ Poisson(lambda).
func poissonInterval(lambda, alpha float64) (lo, hi float64) {
	cdf, pmf := 0.0, math.Exp(-lambda)
	k := 0.0
	for ; cdf+pmf < alpha/2; k++ {
		cdf += pmf
		pmf *= lambda / (k + 1)
	}
	lo = k
	for ; 1-cdf-pmf > alpha/2; k++ {
		cdf += pmf
		pmf *= lambda / (k + 1)
	}
	return lo, k
}

// measureReference prints an engine workload's reference statistics over
// n trials, run as campaigns of the workload's size.
func measureReference(name string, n int, seed int64) error {
	var w engineWorkload
	switch name {
	case "engine-citadel":
		w = engineCitadel
	case "engine-multifault":
		w = engineMultifault
	default:
		return fmt.Errorf("--reference needs an engine workload, got %q", name)
	}
	var trials, fails, scrubs int64
	for i := 0; trials < int64(n); i++ {
		c, err := w.campaign(context.Background(), splitmix(seed, referenceStream+uint64(i)), w.trials, false)
		if err != nil {
			return err
		}
		trials += int64(c.res.Trials)
		fails += int64(c.res.Failures)
		scrubs += c.scrubs
	}
	fmt.Printf("%s reference over %d trials (seed %d): failures=%d pFail=%.6g scrubsPerTrial=%.6f\n",
		name, trials, seed, fails, float64(fails)/float64(trials), float64(scrubs)/float64(trials))
	return nil
}

// referenceStream keeps reference campaigns apart from run campaigns.
const referenceStream = 1 << 48
