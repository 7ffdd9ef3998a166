package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/scenario"
	"repro/internal/stack"
	"repro/internal/tsv"
)

// The traced run times the reliability engine from outside, through the
// scenario registry: a campaign that names tracedPrefix+scheme and
// tracedModel runs the same plugins behind decorators that forward every
// call unchanged and time it. The decorated seams are the arrival source
// (faultsim.Options.NewArrivals), the incremental correctability state
// (Policy.Predicate), the sparer (Policy.NewSparer) and an observer
// (Policy.NewObserver) that marks when each engine worker finishes.
// passive_test.go pins that results are unchanged.

const (
	tracedPrefix = "bench-traced/"
	tracedModel  = tracedPrefix + scenario.DefaultFaultModel
	// trialSampleEvery selects the trials whose seam calls become trace
	// events and whose TSV arrivals are replayed through TSV-SWAP.
	trialSampleEvery = 64
	// tsvReplayPerLane caps the TSV arrivals one engine worker keeps for
	// the TSV-SWAP replay.
	tsvReplayPerLane = 256
)

// tracedSchemes are the schemes the workloads simulate.
var tracedSchemes = []string{"Citadel", "3DP+DDS"}

var registerOnce sync.Once

// registerTraced adds the traced scheme and fault-model plugins to the
// registry; the first call registers, later calls do nothing.
func registerTraced() {
	registerOnce.Do(func() {
		for _, name := range tracedSchemes {
			inner, ok := scenario.SchemeByName(name)
			if !ok {
				panic("benchmark: scheme " + name + " is not registered")
			}
			scenario.RegisterScheme(scenario.Scheme{
				Name:        tracedPrefix + name,
				Description: inner.Description + " (timed by the benchmark)",
				Params:      inner.Params,
				Build: func(cfg stack.Config, p scenario.Params) (faultsim.Policy, error) {
					pol, err := inner.Build(cfg, p)
					if err != nil {
						return pol, err
					}
					if t := activeTracer.Load(); t != nil {
						pol = t.wrapPolicy(pol)
					}
					return pol, nil
				},
			})
		}
		inner, _ := scenario.FaultModelByName(scenario.DefaultFaultModel)
		scenario.RegisterFaultModel(scenario.FaultModel{
			Name:        tracedModel,
			Description: inner.Description + " (timed by the benchmark)",
			Params:      inner.Params,
			Build: func(cfg stack.Config, rates fault.Rates, p scenario.Params) (func() faultsim.Arrivals, error) {
				newInner, err := inner.Build(cfg, rates, p)
				if t := activeTracer.Load(); err == nil && t != nil {
					return t.wrapArrivals(newInner), nil
				}
				return newInner, err
			},
		})
	})
}

// op accumulates calls to one seam.
type op struct{ n, ns int64 }

func (o *op) add(ns int64) { o.n++; o.ns += ns }

// lane is one engine worker goroutine of one run. Only that goroutine
// touches it until retire hands it to the tracer.
type lane struct {
	tid        int64
	gid        uint64
	start, end int64 // ns: first arrival draw, worker finished
	trialStart int64
	open       bool // a trial span is open
	sampled    bool // the open trial is written to the trace file

	trials, faults, multiFault int64
	sampleNs, spanNs           int64
	add, remove, reset, offer  op
	spared                     int64 // offers that spared any fault
	// tsvArrivals holds the TSV arrivals of sampled trials, tsvEnds the
	// end index of each sampled trial's arrivals.
	tsvArrivals []fault.Fault
	tsvEnds     []int
}

// runProbe is one engine run (one campaign or one chunk).
type runProbe struct{ lanes []*lane }

// goid returns the calling goroutine's ID. The engine builds every
// per-worker object (arrival source, incremental state, sparer, observer)
// on the worker's own goroutine, so the ID ties them to one lane. It is
// called once per object, never per trial.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// wrapArrivals decorates one engine run's per-worker arrival factory.
func (t *tracer) wrapArrivals(newInner func() faultsim.Arrivals) func() faultsim.Arrivals {
	run := &runProbe{}
	t.mu.Lock()
	t.runs = append(t.runs, run)
	t.mu.Unlock()
	return func() faultsim.Arrivals {
		return &tracedArrivals{inner: newInner(), t: t, l: t.laneFor(run)}
	}
}

// laneFor returns the calling goroutine's lane, creating it (and adding
// it to run when run is non-nil) on first use.
func (t *tracer) laneFor(run *runProbe) *lane {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.lanes[id]
	if l == nil {
		t.nextTID++
		l = &lane{tid: t.nextTID, gid: id}
		t.lanes[id] = l
	}
	if run != nil {
		run.lanes = append(run.lanes, l)
	}
	return l
}

// retire closes a lane when its worker finishes.
func (t *tracer) retire(l *lane) {
	now := t.ns()
	if l.open {
		l.closeTrial(t, now)
		l.open = false
	}
	l.end = now
	t.span("worker", "faultsim", l.tid, l.start, l.end)
	t.mu.Lock()
	delete(t.lanes, l.gid)
	t.mu.Unlock()
}

func (l *lane) closeTrial(t *tracer, now int64) {
	l.spanNs += now - l.trialStart
	if l.sampled {
		t.span("trial", "faultsim", l.tid, l.trialStart, now)
	}
}

func (t *tracer) wrapPolicy(pol faultsim.Policy) faultsim.Policy {
	// A predicate without incremental state runs the engine's batch path;
	// neither workload scheme has one, so it is left untimed.
	if ip, ok := pol.Predicate.(ecc.IncrementalPredicate); ok {
		pol.Predicate = tracedPredicate{IncrementalPredicate: ip, t: t}
	}
	if newSparer := pol.NewSparer; newSparer != nil {
		pol.NewSparer = func(cfg stack.Config) faultsim.Sparer {
			s := &tracedSparer{inner: newSparer(cfg), t: t, l: t.laneFor(nil)}
			if r, ok := s.inner.(resetter); ok {
				// Only a resettable sparer may look resettable: the engine
				// reuses such a sparer across trials instead of rebuilding it.
				return &tracedResetSparer{tracedSparer: s, r: r}
			}
			return s
		}
	}
	newObserver := pol.NewObserver
	pol.NewObserver = func(cfg stack.Config) faultsim.Observer {
		o := &tracedObserver{t: t, l: t.laneFor(nil)}
		if newObserver != nil {
			o.inner = newObserver(cfg)
		}
		return o
	}
	return pol
}

// tracedArrivals times the arrival draw and opens each trial's span; a
// trial runs from one draw to the next on the same worker.
type tracedArrivals struct {
	inner faultsim.Arrivals
	t     *tracer
	l     *lane
}

func (a *tracedArrivals) AppendLifetime(rng *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault {
	l, t := a.l, a.t
	t0 := t.ns()
	if l.open {
		l.closeTrial(t, t0)
	} else {
		l.start, l.open = t0, true
	}
	l.trialStart = t0
	n0 := len(dst)
	out := a.inner.AppendLifetime(rng, hours, dst)
	t1 := t.ns()
	l.sampleNs += t1 - t0
	l.trials++
	k := int64(len(out) - n0)
	l.faults += k
	if k > 1 {
		l.multiFault++
	}
	l.sampled = l.trials%trialSampleEvery == 0
	if l.sampled {
		t.span("fault.sample", "fault", l.tid, t0, t1)
		if len(l.tsvArrivals) < tsvReplayPerLane {
			for _, f := range out[n0:] {
				if f.Class.IsTSV() {
					l.tsvArrivals = append(l.tsvArrivals, f)
				}
			}
			l.tsvEnds = append(l.tsvEnds, len(l.tsvArrivals))
		}
	}
	return out
}

// FlushStats forwards to an arrival source that keeps scenario counters.
// The engine folds an empty map into nothing, so adding the method to a
// source without it leaves results unchanged.
func (a *tracedArrivals) FlushStats(dst map[string]float64) {
	if s, ok := a.inner.(faultsim.ArrivalStats); ok {
		s.FlushStats(dst)
	}
}

// tracedPredicate keeps the incremental interface, so the traced engine
// runs the same incremental path as the untraced one.
type tracedPredicate struct {
	ecc.IncrementalPredicate
	t *tracer
}

func (p tracedPredicate) Begin() ecc.IncrementalState {
	return &tracedState{inner: p.IncrementalPredicate.Begin(), t: p.t, l: p.t.laneFor(nil)}
}

type tracedState struct {
	inner ecc.IncrementalState
	t     *tracer
	l     *lane
}

func (s *tracedState) Add(f fault.Fault) bool {
	t0 := s.t.ns()
	bad := s.inner.Add(f)
	t1 := s.t.ns()
	s.l.add.add(t1 - t0)
	if s.l.sampled {
		s.t.span("ecc.add", "ecc", s.l.tid, t0, t1)
	}
	return bad
}

func (s *tracedState) Remove(f fault.Fault) bool {
	t0 := s.t.ns()
	bad := s.inner.Remove(f)
	t1 := s.t.ns()
	s.l.remove.add(t1 - t0)
	if s.l.sampled {
		s.t.span("ecc.remove", "ecc", s.l.tid, t0, t1)
	}
	return bad
}

func (s *tracedState) Reset() {
	t0 := s.t.ns()
	s.inner.Reset()
	s.l.reset.add(s.t.ns() - t0)
}

func (s *tracedState) Uncorrectable() bool { return s.inner.Uncorrectable() }

type resetter interface{ Reset() }

type tracedSparer struct {
	inner faultsim.Sparer
	t     *tracer
	l     *lane
}

func (s *tracedSparer) Offer(f fault.Fault, live []fault.Fault) (bool, []int) {
	t0 := s.t.ns()
	self, others := s.inner.Offer(f, live)
	t1 := s.t.ns()
	s.l.offer.add(t1 - t0)
	if self || len(others) > 0 {
		s.l.spared++
	}
	if s.l.sampled {
		s.t.span("sparing.offer", "sparing", s.l.tid, t0, t1)
	}
	return self, others
}

type tracedResetSparer struct {
	*tracedSparer
	r resetter
}

func (s *tracedResetSparer) Reset() { s.r.Reset() }

// tracedObserver chains the scheme's own observer, if any, and retires
// the worker's lane when the engine flushes it after the worker's last
// trial.
type tracedObserver struct {
	inner faultsim.Observer
	t     *tracer
	l     *lane
}

func (o *tracedObserver) Arrival(f fault.Fault, uncorrectable bool) {
	if o.inner != nil {
		o.inner.Arrival(f, uncorrectable)
	}
}

func (o *tracedObserver) FlushStats(dst map[string]float64) {
	if o.inner != nil {
		o.inner.FlushStats(dst)
	}
	o.t.retire(o.l)
}

// engineLayers derives the fault, tsv, ecc, sparing and faultsim
// per-layer metrics from the retired lanes of every traced run.
func (t *tracer) engineLayers(r *report) {
	t.mu.Lock()
	runs := t.runs
	t.mu.Unlock()
	var (
		sum                     lane
		workerNs, tailNs, runNs int64
		replay                  []fault.Fault
		replayEnds              []int
	)
	for _, run := range runs {
		if len(run.lanes) == 0 {
			continue
		}
		first, firstEnd, lastEnd := run.lanes[0].start, run.lanes[0].end, run.lanes[0].end
		for _, l := range run.lanes {
			first = min(first, l.start)
			firstEnd = min(firstEnd, l.end)
			lastEnd = max(lastEnd, l.end)
			workerNs += l.end - l.start
			sum.trials += l.trials
			sum.faults += l.faults
			sum.multiFault += l.multiFault
			sum.sampleNs += l.sampleNs
			sum.spanNs += l.spanNs
			sum.add.n, sum.add.ns = sum.add.n+l.add.n, sum.add.ns+l.add.ns
			sum.remove.n, sum.remove.ns = sum.remove.n+l.remove.n, sum.remove.ns+l.remove.ns
			sum.reset.ns += l.reset.ns
			sum.offer.n, sum.offer.ns = sum.offer.n+l.offer.n, sum.offer.ns+l.offer.ns
			sum.spared += l.spared
			for _, end := range l.tsvEnds {
				replayEnds = append(replayEnds, len(replay)+end)
			}
			replay = append(replay, l.tsvArrivals...)
		}
		tailNs += lastEnd - firstEnd
		runNs += lastEnd - first
	}
	trials := float64(sum.trials)
	eccNs := sum.add.ns + sum.remove.ns + sum.reset.ns
	r.set("fault.sample_ns_per_trial", ratio(float64(sum.sampleNs), trials), int(sum.trials))
	r.set("fault.faults_per_trial", ratio(float64(sum.faults), trials), int(sum.trials))
	r.set("fault.multi_fault_trial_share", ratio(float64(sum.multiFault), trials), int(sum.trials))
	r.set("fault.share", ratio(float64(sum.sampleNs), float64(workerNs)), len(runs))
	r.set("ecc.add_per_trial", ratio(float64(sum.add.n), trials), int(sum.trials))
	r.set("ecc.add_ns", ratio(float64(sum.add.ns), float64(sum.add.n)), int(sum.add.n))
	r.set("ecc.remove_per_trial", ratio(float64(sum.remove.n), trials), int(sum.trials))
	r.set("ecc.remove_ns", ratio(float64(sum.remove.ns), float64(sum.remove.n)), int(sum.remove.n))
	r.set("ecc.share", ratio(float64(eccNs), float64(workerNs)), len(runs))
	r.set("sparing.offer_per_trial", ratio(float64(sum.offer.n), trials), int(sum.trials))
	r.set("sparing.offer_ns", ratio(float64(sum.offer.ns), float64(sum.offer.n)), int(sum.offer.n))
	r.set("sparing.spared_ratio", ratio(float64(sum.spared), float64(sum.offer.n)), int(sum.offer.n))
	r.set("sparing.share", ratio(float64(sum.offer.ns), float64(workerNs)), len(runs))
	self := sum.spanNs - sum.sampleNs - eccNs - sum.offer.ns
	r.set("faultsim.self_ns_per_trial", ratio(float64(self), trials), int(sum.trials))
	r.set("faultsim.worker_tail_share", ratio(float64(tailNs), float64(runNs)), len(runs))

	// TSV-SWAP is not a seam of the engine, so the sampled trials' TSV
	// arrivals are replayed through a fresh swapper per trial.
	sw := tsv.NewSwapper(stack.DefaultConfig())
	var applied, repaired, applyNs int64
	lo := 0
	for _, hi := range replayEnds {
		sw.Reset()
		for _, f := range replay[lo:hi] {
			t0 := time.Now()
			_, ok := sw.Apply(f)
			applyNs += int64(time.Since(t0))
			applied++
			if ok {
				repaired++
			}
		}
		lo = hi
	}
	r.set("tsv.arrivals_per_trial", ratio(float64(applied), float64(len(replayEnds))), len(replayEnds))
	r.set("tsv.apply_ns", ratio(float64(applyNs), float64(applied)), int(applied))
	r.set("tsv.repaired_ratio", ratio(float64(repaired), float64(applied)), int(applied))
}
