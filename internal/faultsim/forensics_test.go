package faultsim

import (
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/parity"
)

// forensicOptions is a fixed-seed configuration hot enough to produce
// failures in a few thousand trials.
func forensicOptions(trials int) Options {
	opt := testOptions(trials, 40, 1000)
	opt.Seed = 4242
	opt.Workers = 2
	opt.Forensics = true
	return opt
}

func citadelPolicy() Policy {
	cfg := testOptions(0, 1, 0).Config
	return Policy{
		Name:       "Citadel",
		Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
		UseTSVSwap: true,
		NewSparer:  ddsSparer,
	}
}

// TestBreakdownSumsToFailures pins the acceptance criterion: the per-mode
// breakdown counts of a forensics run must sum exactly to Failures.
func TestBreakdownSumsToFailures(t *testing.T) {
	skipInShort(t)
	opt := forensicOptions(4000)
	res := RunContext(context.Background(), opt, citadelPolicy())
	if res.Failures == 0 {
		t.Fatal("expected failures at these rates; breakdown test needs them")
	}
	if res.Breakdown == nil {
		t.Fatal("Forensics on but Breakdown nil")
	}
	sum := 0
	for mode, n := range res.Breakdown {
		if n <= 0 {
			t.Errorf("mode %q has non-positive count %d", mode, n)
		}
		sum += n
	}
	if sum != res.Failures {
		t.Fatalf("breakdown sums to %d, Failures = %d (%v)", sum, res.Failures, res.Breakdown)
	}
	if len(res.Exemplars) == 0 {
		t.Fatal("no exemplars captured")
	}
	if len(res.Exemplars) > 8 {
		t.Fatalf("exemplars exceed default cap: %d", len(res.Exemplars))
	}
	for i, ex := range res.Exemplars {
		if len(ex.Faults) == 0 || len(ex.Reasons) == 0 || ex.Mode == "" {
			t.Errorf("exemplar %d incomplete: %+v", i, ex)
		}
		if ex.BaseSeed != opt.Seed {
			t.Errorf("exemplar %d BaseSeed = %d, want %d", i, ex.BaseSeed, opt.Seed)
		}
	}
}

// TestForensicsOffKeepsResultClean: without the opt-in, the new Result
// fields must stay nil so golden comparisons of existing runs still hold.
func TestForensicsOffKeepsResultClean(t *testing.T) {
	skipInShort(t)
	opt := testOptions(500, 40, 1000)
	res := RunContext(context.Background(), opt, citadelPolicy())
	if res.Breakdown != nil || res.Exemplars != nil {
		t.Fatalf("forensics fields set without opt-in: %v %v", res.Breakdown, res.Exemplars)
	}
}

// TestForensicReplayGolden is the golden replay test: every exemplar of a
// fixed-seed run, replayed from its recorded (seed, trial) coordinates,
// must reproduce the identical uncorrectable fault set, failure time,
// mode, and reason chain.
func TestForensicReplayGolden(t *testing.T) {
	skipInShort(t)
	opt := forensicOptions(4000)
	pol := citadelPolicy()
	res := RunContext(context.Background(), opt, pol)
	if len(res.Exemplars) == 0 {
		t.Fatal("no exemplars to replay")
	}
	for i, ex := range res.Exemplars {
		got, ok := ReplayForensic(opt, pol, ex)
		if !ok {
			t.Fatalf("exemplar %d (%s) did not reproduce a failure", i, ex)
		}
		if !reflect.DeepEqual(got.Faults, ex.Faults) {
			t.Errorf("exemplar %d fault set differs:\n got %v\nwant %v", i, got.Faults, ex.Faults)
		}
		if got.FailureHours != ex.FailureHours || got.Cause != ex.Cause || got.Mode != ex.Mode {
			t.Errorf("exemplar %d verdict differs: got (%.1fh %s %s), want (%.1fh %s %s)",
				i, got.FailureHours, got.Cause, got.Mode, ex.FailureHours, ex.Cause, ex.Mode)
		}
		if !reflect.DeepEqual(got.Reasons, ex.Reasons) {
			t.Errorf("exemplar %d reason chain differs:\n got %v\nwant %v", i, got.Reasons, ex.Reasons)
		}
	}
}

// countingArrivals counts the lifetimes drawn through it.
type countingArrivals struct {
	Arrivals
	calls *int
}

func (c countingArrivals) AppendLifetime(rng *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault {
	*c.calls++
	return c.Arrivals.AppendLifetime(rng, hours, dst)
}

// TestReplayDrawsOneLifetime: every trial draws from its own stream, so
// replaying trial 10^6 draws that one lifetime and none before it.
func TestReplayDrawsOneLifetime(t *testing.T) {
	opt := forensicOptions(0)
	calls := 0
	opt.NewArrivals = func() Arrivals {
		return countingArrivals{fault.NewSampler(opt.Config, opt.Rates), &calls}
	}
	ReplayTrial(opt, citadelPolicy(), 1_000_000)
	if calls != 1 {
		t.Fatalf("replaying trial 10^6 drew %d lifetimes, want 1", calls)
	}
}

// TestForensicsIncrementalMatchesBatch extends the engine differential to
// the forensic outputs: breakdown and exemplars must be identical across
// the incremental and batch correctability paths.
func TestForensicsIncrementalMatchesBatch(t *testing.T) {
	skipInShort(t)
	opt := forensicOptions(3000)
	opt.Workers = 1
	pol := citadelPolicy()
	inc := RunContext(context.Background(), opt, pol)
	batch := RunContext(context.Background(), opt, batchPolicy(pol))
	if !reflect.DeepEqual(inc.Breakdown, batch.Breakdown) {
		t.Errorf("breakdown differs:\n inc   %v\n batch %v", inc.Breakdown, batch.Breakdown)
	}
	if !reflect.DeepEqual(inc.Exemplars, batch.Exemplars) {
		t.Errorf("exemplars differ:\n inc   %v\n batch %v", inc.Exemplars, batch.Exemplars)
	}
}

// TestMergeForensics checks Merge's nil preservation and additivity.
func TestMergeForensics(t *testing.T) {
	a := Result{Trials: 10, Failures: 1, Breakdown: map[string]int{"bank": 1},
		Exemplars: []Forensic{{Trial: 3}}}
	b := Result{Trials: 10, Failures: 2, Breakdown: map[string]int{"bank": 1, "row": 1},
		Exemplars: []Forensic{{Trial: 5}}}
	m := Merge(a, b)
	if m.Breakdown["bank"] != 2 || m.Breakdown["row"] != 1 {
		t.Errorf("merged breakdown wrong: %v", m.Breakdown)
	}
	if len(m.Exemplars) != 2 {
		t.Errorf("merged exemplars wrong: %v", m.Exemplars)
	}
	// Merging forensics-free results must keep the fields nil.
	plain := Merge(Result{Trials: 5}, Result{Trials: 5})
	if plain.Breakdown != nil || plain.Exemplars != nil {
		t.Errorf("merge of plain results grew forensics fields: %v %v", plain.Breakdown, plain.Exemplars)
	}
}

// TestAdaptiveForensics: an adaptive run must carry forensics across
// batches, and its exemplars must replay.
func TestAdaptiveForensics(t *testing.T) {
	skipInShort(t)
	opt := forensicOptions(1000)
	opt.TargetFailures, opt.MaxTrials = 5, 20000
	pol := citadelPolicy()
	res := RunContext(context.Background(), opt, pol)
	if res.Failures == 0 {
		t.Skip("no failures accumulated; cannot exercise forensics")
	}
	sum := 0
	for _, n := range res.Breakdown {
		sum += n
	}
	if sum != res.Failures {
		t.Fatalf("adaptive breakdown sums to %d, Failures = %d", sum, res.Failures)
	}
	if len(res.Exemplars) == 0 {
		t.Fatal("no exemplars in adaptive run")
	}
	ex := res.Exemplars[0]
	got, ok := ReplayForensic(opt, pol, ex)
	if !ok {
		t.Fatalf("adaptive exemplar did not replay: %s", ex)
	}
	if !reflect.DeepEqual(got.Faults, ex.Faults) {
		t.Fatalf("adaptive exemplar fault set differs:\n got %v\nwant %v", got.Faults, ex.Faults)
	}
}

// TestRunTraceEvents: a recorder wired into Options captures trial spans
// and failure instants, and exports valid JSON.
func TestRunTraceEvents(t *testing.T) {
	skipInShort(t)
	opt := forensicOptions(2000)
	opt.Forensics = false
	opt.RunID = "r-test-trace"
	opt.Trace = trace.New(trace.Options{Capacity: 4096, RunID: opt.RunID})
	res := RunContext(context.Background(), opt, citadelPolicy())
	events, _ := opt.Trace.Snapshot()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	var sawTrial, sawRun, sawFailure bool
	for _, ev := range events {
		switch ev.Name {
		case "trial":
			sawTrial = true
		case "run":
			sawRun = true
		case "uncorrectable":
			sawFailure = true
		}
	}
	if !sawTrial || !sawRun {
		t.Errorf("missing event kinds: trial=%v run=%v", sawTrial, sawRun)
	}
	if res.Failures > 0 && !sawFailure {
		t.Errorf("run had %d failures but no uncorrectable events", res.Failures)
	}
	if err := opt.Trace.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("chrome trace export failed: %v", err)
	}
}

// TestMetricsScrapeDuringCensusRace scrapes the process-wide registry
// concurrently with a running census; the race detector validates that the
// registry's atomics and the census worker counters never conflict.
func TestMetricsScrapeDuringCensusRace(t *testing.T) {
	opt := testOptions(2000, 25, 500)
	opt.Workers = 2
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				obs.Default().WritePrometheus(io.Discard)
			}
		}
	}()
	c := RunCensusContext(context.Background(), opt, true)
	close(stop)
	<-scraped
	if c.Trials != opt.Trials {
		t.Fatalf("census completed %d trials, want %d", c.Trials, opt.Trials)
	}
}
