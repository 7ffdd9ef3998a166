package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
)

// tracer holds one traced phase's state: the Chrome trace recorder, the
// engine worker lanes (probe_engine.go) and the service seams
// (probe_service.go).
type tracer struct {
	base time.Time
	rec  *trace.Recorder

	mu      sync.Mutex
	lanes   map[uint64]*lane // live lanes by goroutine ID
	runs    []*runProbe
	nextTID int64

	svc serviceProbe
}

// activeTracer is the tracer of the running traced phase, nil otherwise.
// A traced plugin built while it is nil forwards without timing.
var activeTracer atomic.Pointer[tracer]

// Trace-file thread IDs: one per load client, per cluster worker, one for
// commits, then one per engine worker lane.
const (
	clientTID    = 1  // + client index
	workerTID    = 11 // + worker index
	commitTID    = 21
	firstLaneTID = 100
)

// traceCapacity bounds the trace file: the recorder keeps the newest
// events.
const traceCapacity = 1 << 15

func newTracer(cfg runConfig) *tracer {
	return &tracer{
		base:    time.Now(),
		rec:     trace.New(trace.Options{Capacity: traceCapacity, RunID: fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)}),
		lanes:   make(map[uint64]*lane),
		nextTID: firstLaneTID - 1,
	}
}

// ns is the tracer's monotonic clock.
func (t *tracer) ns() int64 { return int64(time.Since(t.base)) }

// spanTimes records a load client's span between two instants; a nil
// tracer records nothing.
func (t *tracer) spanTimes(name string, tid int64, from, to time.Time) {
	if t != nil {
		t.span(name, "client", tid, int64(from.Sub(t.base)), int64(to.Sub(t.base)))
	}
}

// span records a complete event between two tracer-clock instants.
func (t *tracer) span(name, cat string, tid int64, from, to int64) {
	t.rec.Emit(trace.Event{
		Name: name, Cat: cat, Phase: trace.PhaseComplete,
		TS: float64(from) / 1e3, Dur: float64(to-from) / 1e3, TID: tid,
	})
}

// writeTrace writes the traced phase's Chrome trace-event file.
func writeTrace(r *report, tr *tracer, cfg runConfig) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		r.check(false, "trace file: %v", err)
		return
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		r.check(false, "trace file: %v", err)
		return
	}
	err = tr.rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	r.check(err == nil, "trace file: %v", err)
	r.note("trace file %s (%d events kept, %d dropped)", path, tr.rec.Len(), tr.rec.Dropped())
}
