package faultsim

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/trace"
)

// lane is one worker's trial body under execute: the executor draws each
// trial's lifetime and hands it over, and the lane evaluates it and keeps
// the worker's tallies for its run to fold. A lane is built, driven and
// finished on its worker's goroutine, so it needs no locking.
type lane interface {
	// trial consumes the non-empty lifetime drawn for trial t of the run
	// and reports whether the system failed.
	trial(t int, faults []fault.Fault) bool
	// scrubs returns the lane's cumulative scrub passes.
	scrubs() int64
	// finish runs once, after the worker's last trial.
	finish()
}

// arrivals builds one worker's arrival source: opt.NewArrivals, or the
// Poisson FIT-rate sampler when it is nil.
func (o Options) arrivals() Arrivals {
	if o.NewArrivals != nil {
		return o.NewArrivals()
	}
	return fault.NewSampler(o.Config, o.Rates)
}

// execute is the engine's one trial executor; RunContext (and through it
// adaptive and importance-sampled runs) and RunCensusContext are folds
// over its lanes. It splits opt.Trials into one contiguous slice per
// worker and draws trial t from deriveSeed(opt.Seed, t) (drawLifetime),
// so the worker count sets only the parallelism. On each worker's own
// goroutine it builds the arrival source, then the lane (newLane), then
// runs the slice. It alone checks ctx, every cancelCheckInterval trials;
// it flushes the live progress and metric counters, drives opt.Progress,
// and records the trace spans of sampled trials and of the whole run.
//
// It returns the lanes in worker order, which is trial order, with the
// completed trial and failure counts, and err set to ctx's cause when the
// run stopped short of opt.Trials.
func execute[L lane](ctx context.Context, opt Options, name string, newLane func(worker int, src Arrivals) L) (lanes []L, trials, failures int, err error) {
	opt = opt.withDefaults()
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	tr := opt.Trace
	traceOn := tr.Enabled()
	runStart := tr.Now()
	// Live counters: workers flush local tallies here every
	// cancelCheckInterval trials so the progress reporter and the global
	// metrics see the run move without per-trial atomics.
	var progTrials, progFailures, progScrubs atomic.Int64
	start := time.Now()
	snapshot := func(done bool) Progress {
		return Progress{
			Policy:       name,
			RunID:        opt.RunID,
			TrialsDone:   int(progTrials.Load()),
			TrialsTarget: opt.Trials,
			Failures:     int(progFailures.Load()),
			ScrubPasses:  progScrubs.Load(),
			Elapsed:      time.Since(start),
			Done:         done,
		}
	}
	stopProg := make(chan struct{})
	progDone := make(chan struct{})
	if opt.Progress != nil {
		interval := opt.ProgressInterval
		if interval <= 0 {
			interval = time.Second
		}
		go func() {
			defer close(progDone)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stopProg:
					return
				case <-tick.C:
					opt.Progress(snapshot(false))
				}
			}
		}()
	} else {
		close(progDone)
	}
	lanes = make([]L, opt.Workers)
	done := make([]int, opt.Workers)
	failed := make([]int, opt.Workers)
	used := 0
	var wg sync.WaitGroup
	per := (opt.Trials + opt.Workers - 1) / opt.Workers
	for ; used < opt.Workers; used++ {
		lo := used * per
		hi := min(lo+per, opt.Trials)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			rng := newTrialRand()
			src := opt.arrivals()
			l := newLane(worker, src)
			var buf []fault.Fault
			nDone, nFailed := 0, 0
			var flushedDone, flushedFailures, flushedScrubs int64
			flush := func() {
				d, f, s := int64(nDone)-flushedDone, int64(nFailed)-flushedFailures, l.scrubs()-flushedScrubs
				progTrials.Add(d)
				progFailures.Add(f)
				progScrubs.Add(s)
				mTrials.Add(d)
				mFailures.Add(f)
				mScrubs.Add(s)
				flushedDone, flushedFailures, flushedScrubs = flushedDone+d, flushedFailures+f, flushedScrubs+s
			}
			for t := lo; t < hi; t++ {
				if (t-lo)%cancelCheckInterval == 0 {
					flush()
					if ctx.Err() != nil {
						break
					}
				}
				nDone++
				buf = drawLifetime(rng, src, opt.Seed, t, opt.LifetimeHours, buf[:0])
				if len(buf) == 0 {
					continue
				}
				sampled := traceOn && tr.ShouldSample(uint64(t))
				var spanStart float64
				if sampled {
					spanStart = tr.Now()
				}
				bad := l.trial(t, buf)
				if bad {
					nFailed++
				}
				if sampled {
					ev := trace.Event{
						Name: "trial", Cat: "faultsim", Phase: trace.PhaseComplete,
						TS: spanStart, Dur: tr.Now() - spanStart, TID: int64(worker),
					}
					ev.Args[0] = trace.Arg{Key: "trial", Val: float64(t)}
					ev.Args[1] = trace.Arg{Key: "faults", Val: float64(len(buf))}
					if bad {
						ev.Args[2] = trace.Arg{Key: "failed", Val: 1}
					}
					ev.Args[3] = trace.Arg{Key: "runId", Str: opt.RunID}
					tr.Emit(ev)
				}
			}
			flush()
			l.finish()
			lanes[worker], done[worker], failed[worker] = l, nDone, nFailed
		}(used, lo, hi)
	}
	wg.Wait()
	close(stopProg)
	<-progDone
	lanes = lanes[:used]
	for w := 0; w < used; w++ {
		trials += done[w]
		failures += failed[w]
	}
	if ctx.Err() != nil && trials < opt.Trials {
		err = ctx.Err()
	}
	if traceOn {
		ev := trace.Event{
			Name: "run", Cat: "faultsim", Phase: trace.PhaseComplete,
			TS: runStart, Dur: tr.Now() - runStart, TID: -1,
		}
		ev.Args[0] = trace.Arg{Key: "policy", Str: name}
		ev.Args[1] = trace.Arg{Key: "trials", Val: float64(trials)}
		ev.Args[2] = trace.Arg{Key: "failures", Val: float64(failures)}
		ev.Args[3] = trace.Arg{Key: "runId", Str: opt.RunID}
		tr.Emit(ev)
	}
	if opt.Progress != nil {
		opt.Progress(snapshot(true))
	}
	return lanes, trials, failures, err
}
