package faultsim

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// goid parses the calling goroutine's id from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// constructionLog records, per goroutine, which per-worker seams the
// executor built there and whether the observer was flushed.
type constructionLog struct {
	mu      sync.Mutex
	built   map[uint64]map[string]int
	flushed map[uint64]int
	errs    []string
}

func (c *constructionLog) note(seam string) uint64 {
	id := goid()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built[id] == nil {
		c.built[id] = map[string]int{}
	}
	c.built[id][seam]++
	return id
}

func (c *constructionLog) fail(msg string) {
	c.mu.Lock()
	c.errs = append(c.errs, msg)
	c.mu.Unlock()
}

type loggedPredicate struct {
	ecc.IncrementalPredicate
	log *constructionLog
}

func (p loggedPredicate) Begin() ecc.IncrementalState {
	p.log.note("Begin")
	return p.IncrementalPredicate.Begin()
}

// loggedObserver checks it is used only on its constructing goroutine
// and never after FlushStats.
type loggedObserver struct {
	log     *constructionLog
	id      uint64
	flushed bool
}

func (o *loggedObserver) Arrival(fault.Fault, bool) {
	if o.flushed || goid() != o.id {
		o.log.fail("observer saw an arrival after its flush or off its worker goroutine")
	}
}

func (o *loggedObserver) FlushStats(map[string]float64) {
	if goid() != o.id {
		o.log.fail("observer flushed off its worker goroutine")
	}
	o.flushed = true
	o.log.mu.Lock()
	o.log.flushed[o.id]++
	o.log.mu.Unlock()
}

type loggedArrivals struct {
	*fault.Sampler
	log *constructionLog
	id  uint64
}

func (a *loggedArrivals) AppendLifetime(rng *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault {
	if goid() != a.id {
		a.log.fail("arrival source drawn off its worker goroutine")
	}
	return a.Sampler.AppendLifetime(rng, hours, dst)
}

// TestExecutorPerWorkerConstruction pins the executor's construction
// contract, which per-worker plugins and tracers rely on: each worker
// builds its arrival source, incremental state, sparer and observer
// exactly once, on its own goroutine, and flushes its observer once after
// its last trial — in an adaptive run too, whose batches all run on the
// same workers.
func TestExecutorPerWorkerConstruction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name                      string
		trials, target, maxTrials int
	}{
		{"fixed", 3000, 0, 0},
		{"adaptive over 4 batches", 1000, 1 << 30, 4000},
	} {
		log := &constructionLog{built: map[uint64]map[string]int{}, flushed: map[uint64]int{}}
		opt := testOptions(tc.trials, 20, 1000)
		opt.Workers = 3
		opt.TargetFailures, opt.MaxTrials = tc.target, tc.maxTrials
		opt.NewArrivals = func() Arrivals {
			return &loggedArrivals{Sampler: fault.NewSampler(opt.Config, opt.Rates), log: log, id: log.note("NewArrivals")}
		}
		pol := Policy{
			Predicate: loggedPredicate{ecc.NewParity(opt.Config, parity.ThreeDP), log},
			NewSparer: func(cfg stack.Config) Sparer {
				log.note("NewSparer")
				return ddsSparer(cfg)
			},
			NewObserver: func(stack.Config) Observer {
				return &loggedObserver{log: log, id: log.note("NewObserver")}
			},
		}
		want := max(tc.trials, tc.maxTrials)
		if res := RunContext(context.Background(), opt, pol); res.Trials != want || res.Failures == 0 {
			t.Fatalf("%s: run too weak to exercise the seams: %s", tc.name, res)
		}
		for _, msg := range log.errs {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if len(log.built) != opt.Workers {
			t.Fatalf("%s: seams built on %d goroutines, want one per worker (%d)", tc.name, len(log.built), opt.Workers)
		}
		for id, seams := range log.built {
			for _, seam := range []string{"NewArrivals", "Begin", "NewSparer", "NewObserver"} {
				if seams[seam] != 1 {
					t.Errorf("%s: goroutine %d called %s %d times, want once", tc.name, id, seam, seams[seam])
				}
			}
			if log.flushed[id] != 1 {
				t.Errorf("%s: goroutine %d flushed its observer %d times, want once", tc.name, id, log.flushed[id])
			}
		}
	}
}

// oneFaultArrivals yields one fault per lifetime, so every trial reaches
// its lane.
type oneFaultArrivals struct{}

func (oneFaultArrivals) AppendLifetime(_ *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault {
	return append(dst, fault.Fault{Hours: hours / 2})
}

// recordingLane records the trials it evaluates into counts, shared by
// every lane of a run, and its own trials in order. Trials that are
// multiples of 7 fail.
type recordingLane struct {
	counts []atomic.Int32
	trials []int
	// onTrial, when non-nil, runs before the trial is counted.
	onTrial func(t int)
}

func (l *recordingLane) trial(t int, _ []fault.Fault) bool {
	if l.onTrial != nil {
		l.onTrial(t)
	}
	l.counts[t].Add(1)
	l.trials = append(l.trials, t)
	return t%7 == 0
}

func (*recordingLane) scrubs() int64 { return 0 }
func (*recordingLane) finish()       {}

// executeRecorded runs execute over recording lanes and returns them with
// the per-trial evaluation counts.
func executeRecorded(ctx context.Context, trials, workers int, onTrial func(int)) ([]*recordingLane, []atomic.Int32, int, int, error) {
	counts := make([]atomic.Int32, trials)
	opt := Options{Trials: trials, Workers: workers, NewArrivals: func() Arrivals { return oneFaultArrivals{} }}
	lanes, done, failures, err := execute(ctx, opt, "test", func(int, Arrivals) *recordingLane {
		return &recordingLane{counts: counts, onTrial: onTrial}
	})
	return lanes, counts, done, failures, err
}

// TestExecutorEvaluatesEveryTrialOnce: whatever the worker count, and
// whether or not the trial count fills whole blocks, every trial index is
// evaluated exactly once, and each lane sees its trials in increasing
// order, which RunContext's merges by trial index rely on.
func TestExecutorEvaluatesEveryTrialOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	for _, workers := range []int{1, 2, 3, 16} {
		for _, trials := range []int{1, 63, 64, 65, 1000, 4097} {
			lanes, counts, done, failures, err := executeRecorded(context.Background(), trials, workers, nil)
			if err != nil || done != trials {
				t.Fatalf("workers %d, trials %d: ran %d trials, err %v", workers, trials, done, err)
			}
			if want := (trials + 6) / 7; failures != want {
				t.Errorf("workers %d, trials %d: %d failures, want %d", workers, trials, failures, want)
			}
			if len(lanes) > workers {
				t.Errorf("workers %d, trials %d: %d lanes", workers, trials, len(lanes))
			}
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("workers %d, trials %d: trial %d evaluated %d times", workers, trials, i, n)
				}
			}
			for w, l := range lanes {
				if !slices.IsSorted(l.trials) {
					t.Fatalf("workers %d, trials %d: lane %d ran its trials out of order", workers, trials, w)
				}
			}
		}
	}
}

// TestExecutorCancelCountsEvaluatedTrials: a run cancelled midway reports
// as completed exactly the trials its lanes evaluated, each once, and
// returns the cancellation cause, which RunContext turns into Partial.
func TestExecutorCancelCountsEvaluatedTrials(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const trials = 100000
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		_, counts, done, _, err := executeRecorded(ctx, trials, workers, func(t int) {
			if t == trials/3 {
				cancel()
			}
		})
		cancel()
		evaluated := 0
		for i := range counts {
			n := counts[i].Load()
			if n > 1 {
				t.Fatalf("workers %d: trial %d evaluated %d times", workers, i, n)
			}
			evaluated += int(n)
		}
		if err != context.Canceled || done >= trials || done != evaluated {
			t.Errorf("workers %d: reported %d trials (err %v), evaluated %d of %d", workers, done, err, evaluated, trials)
		}
	}
}

// TestExecutorNoWorkerStallsTheRun: while one worker is held on trial 0,
// the others take over the rest of the run. The held trial waits until
// three quarters of the trials are evaluated, more than a fixed half
// per worker would ever allow, and fails on a deadline rather than
// hanging.
func TestExecutorNoWorkerStallsTheRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const trials = 4096
	var evaluated atomic.Int64
	release := make(chan struct{})
	stalled := false
	_, _, done, _, err := executeRecorded(context.Background(), trials, 2, func(t int) {
		if t == 0 {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				stalled = true
			}
		}
		if evaluated.Add(1) == 3*trials/4 {
			close(release)
		}
	})
	if err != nil || done != trials {
		t.Fatalf("ran %d of %d trials, err %v", done, trials, err)
	}
	if stalled {
		t.Fatal("the other worker evaluated fewer than 3/4 of the trials while trial 0 was held")
	}
}
