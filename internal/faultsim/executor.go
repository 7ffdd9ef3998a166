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
// over its lanes. It runs the trials in batches of opt.Trials: a fixed
// run is one batch, and an adaptive run (opt.TargetFailures > 0) adds
// batches up to opt.MaxTrials trials, stopping after the first batch that
// ends with at least TargetFailures failing trials in the run. Trial t
// draws from deriveSeed(opt.Seed, t) (drawLifetime) whatever its batch or
// worker, so the batch size and the worker count set only where a run
// may stop and its parallelism: an adaptive run that misses its target
// is the fixed run of MaxTrials trials.
//
// Within a batch, workers claim blocks of cancelCheckInterval trials from
// a shared cursor, so a worker that finishes early takes the next block
// rather than idling. On each worker's own goroutine it builds the
// arrival source, then the lane (newLane), runs its blocks of every
// batch, and finishes the lane after the run's last batch. It alone
// checks ctx, once per block and before each batch, so cancellation lands
// within one block per worker; it flushes the live progress and metric
// counters once per block, drives opt.Progress, and records the trace
// spans of sampled trials and of the whole run.
//
// It returns the lanes in worker order with the completed trial and
// failure counts, and err set to ctx's cause when the run stopped short.
// Which trials a lane ran depends on scheduling, but each lane ran its
// trials in increasing order, so a fold that needs trial order merges the
// lanes by trial index.
func execute[L lane](ctx context.Context, opt Options, name string, newLane func(worker int, src Arrivals) L) (lanes []L, trials, failures int, err error) {
	opt = opt.withDefaults()
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	batch, total := opt.Trials, opt.Trials
	if opt.TargetFailures > 0 {
		total = opt.MaxTrials
	}
	if batch <= 0 {
		// A batch of no trials would never advance the run.
		total = 0
	}
	tr := opt.Trace
	traceOn := tr.Enabled()
	runStart := tr.Now()
	// Live counters: workers flush local tallies here every
	// cancelCheckInterval trials so the progress reporter and the global
	// metrics see the run move without per-trial atomics. Between batches
	// they hold the run's exact totals.
	var progTrials, progFailures, progScrubs atomic.Int64
	start := time.Now()
	snapshot := func(done bool) Progress {
		return Progress{
			Policy:       name,
			RunID:        opt.RunID,
			TrialsDone:   int(progTrials.Load()),
			TrialsTarget: total,
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
	workers := max(0, min(opt.Workers, (min(batch, total)+cancelCheckInterval-1)/cancelCheckInterval))
	lanes = make([]L, workers)
	// batchEnds[w] hands worker w the end of each batch, and closing it
	// ends the worker. It holds one signal, so the coordinator posts a
	// batch to every worker without waiting for any to come back for it.
	batchEnds := make([]chan int, workers)
	// next is the first trial of the next unclaimed block.
	var next atomic.Int64
	var inBatch, wg sync.WaitGroup
	for worker := 0; worker < workers; worker++ {
		batchEnds[worker] = make(chan int, 1)
		wg.Add(1)
		go func(worker int) {
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
			for end := range batchEnds[worker] {
				// The worker runs the block [t, hi) it claimed last; at hi it
				// flushes, checks ctx and claims the next block of the batch.
				for t, hi := 0, 0; ; t++ {
					if t == hi {
						flush()
						if ctx.Err() != nil {
							break
						}
						t = int(next.Add(cancelCheckInterval)) - cancelCheckInterval
						if t >= end {
							break
						}
						hi = min(t+cancelCheckInterval, end)
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
				inBatch.Done()
			}
			l.finish()
			lanes[worker] = l
		}(worker)
	}
	// Each batch starts at the cursor's reset and ends when every worker
	// has flushed its last block, so the live counters hold the run's
	// totals when the stop rule reads them.
	for hi := 0; hi < total; {
		if err = ctx.Err(); err != nil {
			break
		}
		next.Store(int64(hi))
		hi = min(hi+batch, total)
		inBatch.Add(workers)
		for _, c := range batchEnds {
			c <- hi
		}
		inBatch.Wait()
		trials, failures = int(progTrials.Load()), int(progFailures.Load())
		if trials < hi {
			err = ctx.Err()
			break
		}
		if opt.TargetFailures > 0 && failures >= opt.TargetFailures {
			break
		}
	}
	for _, c := range batchEnds {
		close(c)
	}
	wg.Wait()
	close(stopProg)
	<-progDone
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
