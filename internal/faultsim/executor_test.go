package faultsim

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

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
// its last trial.
func TestExecutorPerWorkerConstruction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	log := &constructionLog{built: map[uint64]map[string]int{}, flushed: map[uint64]int{}}
	opt := testOptions(3000, 20, 1000)
	opt.Workers = 3
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
	if res := Run(opt, pol); res.Trials != opt.Trials || res.Failures == 0 {
		t.Fatalf("run too weak to exercise the seams: %s", res)
	}
	for _, msg := range log.errs {
		t.Error(msg)
	}
	if len(log.built) != opt.Workers {
		t.Fatalf("seams built on %d goroutines, want one per worker (%d)", len(log.built), opt.Workers)
	}
	for id, seams := range log.built {
		for _, seam := range []string{"NewArrivals", "Begin", "NewSparer", "NewObserver"} {
			if seams[seam] != 1 {
				t.Errorf("goroutine %d called %s %d times, want once", id, seam, seams[seam])
			}
		}
		if log.flushed[id] != 1 {
			t.Errorf("goroutine %d flushed its observer %d times, want once", id, log.flushed[id])
		}
	}
}
