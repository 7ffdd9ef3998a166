package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/ecc"
	"repro/internal/parity"
)

// Regression tests for the statistics/reproducibility fixes: Merge with
// mismatched horizons, seed-stream decorrelation, and progress reporting.

func TestMergeMismatchedYearSlices(t *testing.T) {
	// Pre-fix, Merge silently dropped FailuresByYear whenever the slice
	// lengths differed (as with a zero-value accumulator).
	a := Result{Policy: "x", Trials: 100, Failures: 3, FailuresByYear: []int{1, 1, 2, 2, 3, 3, 3}}
	b := Result{Policy: "x", Trials: 50, Failures: 1, FailuresByYear: []int{0, 1, 1}}
	m := Merge(a, b)
	if len(m.FailuresByYear) != 7 {
		t.Fatalf("merged horizon = %d years, want 7: %v", len(m.FailuresByYear), m.FailuresByYear)
	}
	// Within b's horizon the cumulative counts add; beyond it b carries
	// its final count (1) forward: a failure by year 2 is a failure by
	// every later year.
	want := []int{1, 2, 3, 3, 4, 4, 4}
	for i, w := range want {
		if m.FailuresByYear[i] != w {
			t.Errorf("year %d: merged %d, want %d (full: %v)", i+1, m.FailuresByYear[i], w, m.FailuresByYear)
		}
	}
	// Order must not matter.
	m2 := Merge(b, a)
	for i := range want {
		if m2.FailuresByYear[i] != want[i] {
			t.Errorf("reversed merge year %d: %d, want %d", i+1, m2.FailuresByYear[i], want[i])
		}
	}
	// Zero-value accumulator (empty slice) keeps the other side's curve.
	acc := Merge(Result{}, a)
	if len(acc.FailuresByYear) != 7 || acc.FailuresByYear[6] != 3 {
		t.Errorf("accumulator merge lost the curve: %v", acc.FailuresByYear)
	}
}

func TestMergePropagatesErrSymmetrically(t *testing.T) {
	errA := errors.New("a cancelled")
	errB := errors.New("b cancelled")
	if m := Merge(Result{Err: errA}, Result{}); !errors.Is(m.Err, errA) {
		t.Errorf("a.Err dropped: %v", m.Err)
	}
	// Pre-fix, out.Err came from a alone; b's cancellation cause vanished.
	if m := Merge(Result{}, Result{Err: errB}); !errors.Is(m.Err, errB) {
		t.Errorf("b.Err dropped: %v", m.Err)
	}
	if m := Merge(Result{Err: errA}, Result{Err: errB}); !errors.Is(m.Err, errA) {
		t.Errorf("first cause should win when both set: %v", m.Err)
	}
}

func TestDeriveSeedUniqueAcrossStreams(t *testing.T) {
	// The old scheme derived batch seeds as Seed+batch*1e6 and worker
	// seeds as Seed+worker*1e9, so (batch=1000, worker=0) collided with
	// (batch=0, worker=1) — and nearby seeds fed math/rand correlated
	// streams. Every trial of a run, and every splitting stage, must draw
	// from a distinct stream.
	const base = int64(42)
	seen := make(map[int64]string)
	check := func(seed int64, label string) {
		t.Helper()
		if prev, dup := seen[seed]; dup {
			t.Fatalf("seed collision: %s and %s both derive %d", prev, label, seed)
		}
		seen[seed] = label
	}
	for trial := uint64(0); trial < 1<<16; trial++ {
		check(deriveSeed(base, trial), fmt.Sprintf("trial %d", trial))
	}
	for stage := 0; stage < 64; stage++ {
		check(SplitStreamSeed(base, stage), fmt.Sprintf("split stage %d", stage))
	}
}

func TestDeriveSeedDecorrelatesNearbyBases(t *testing.T) {
	// Adjacent base seeds must not produce adjacent derived seeds (the
	// additive scheme handed math/rand nearly identical states).
	for base := int64(0); base < 64; base++ {
		d := deriveSeed(base, 0) - deriveSeed(base+1, 0)
		if d == 1 || d == -1 {
			t.Errorf("bases %d and %d derive adjacent seeds", base, base+1)
		}
	}
}

// TestRareSeedShiftReproducesStreams pins the window identity behind
// every seed shift — adaptive batches, checkpoint chunks and the
// importance sampler's 2^42-trial offset: trial t of the run seeded
// SeedAt(s, k) is trial k+t of the run seeded s.
func TestRareSeedShiftReproducesStreams(t *testing.T) {
	for _, base := range []int64{0, 1, -1, 7, 42, math.MaxInt64, math.MinInt64} {
		for _, k := range []uint64{0, 1, 500, 10000, 1 << 42, math.MaxUint64} {
			for trial := uint64(0); trial < 64; trial++ {
				if got, want := deriveSeed(SeedAt(base, k), trial), deriveSeed(base, k+trial); got != want {
					t.Fatalf("base %d shift %d trial %d: shifted seed derives %d, want %d", base, k, trial, got, want)
				}
			}
		}
	}
}

func TestPairedSeedsReproducible(t *testing.T) {
	// Paired comparisons (same fault stream per policy) must be exactly
	// reproducible for a fixed worker count, across repeated runs.
	opt := testOptions(3000, 30, 0)
	opt.Workers = 4
	pols := []Policy{
		{Predicate: ecc.NewParity(opt.Config, parity.OneDP)},
		{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)},
	}
	var a, b []Result
	for _, p := range pols {
		a = append(a, RunContext(context.Background(), opt, p))
		b = append(b, RunContext(context.Background(), opt, p))
	}
	for i := range pols {
		if a[i].Failures != b[i].Failures || a[i].Trials != b[i].Trials {
			t.Errorf("policy %s: run 1 %d/%d failures, run 2 %d/%d — not reproducible",
				a[i].Policy, a[i].Failures, a[i].Trials, b[i].Failures, b[i].Trials)
		}
		for y := range a[i].FailuresByYear {
			if a[i].FailuresByYear[y] != b[i].FailuresByYear[y] {
				t.Errorf("policy %s year %d: %d vs %d", a[i].Policy, y+1,
					a[i].FailuresByYear[y], b[i].FailuresByYear[y])
			}
		}
	}
}

func TestRunProgressFinalSnapshot(t *testing.T) {
	opt := testOptions(2000, 30, 0)
	opt.Workers = 2
	opt.ProgressInterval = time.Millisecond
	var last Progress
	finals := 0
	opt.Progress = func(p Progress) {
		last = p
		if p.Done {
			finals++
		}
	}
	res := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	if finals != 1 {
		t.Fatalf("got %d final snapshots, want exactly 1", finals)
	}
	if !last.Done {
		t.Errorf("last snapshot not the final one: %+v", last)
	}
	if last.TrialsDone != res.Trials || last.TrialsTarget != opt.Trials {
		t.Errorf("final snapshot trials %d/%d, result %d/%d",
			last.TrialsDone, last.TrialsTarget, res.Trials, opt.Trials)
	}
	if last.Failures != res.Failures {
		t.Errorf("final snapshot failures %d, result %d", last.Failures, res.Failures)
	}
	if res.Trials > 0 && last.ScrubPasses <= 0 {
		t.Errorf("no scrub passes reported over %d trials", res.Trials)
	}
}

func TestAdaptiveProgressContinuous(t *testing.T) {
	opt := testOptions(1000, 100, 0)
	opt.TargetFailures = 1 << 30 // never reached: exercises multiple batches
	opt.MaxTrials = 4000
	opt.ProgressInterval = time.Millisecond
	var snaps []Progress
	opt.Progress = func(p Progress) { snaps = append(snaps, p) }
	res := RunContext(context.Background(), opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.ThreeDP)})
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	// Snapshots are serialized (the ticker is joined before the final
	// snapshot), so the slice append above is race-free; trials must
	// never move backwards across batch boundaries.
	prev := 0
	for i, p := range snaps {
		if p.TrialsDone < prev {
			t.Fatalf("snapshot %d: trials went backwards %d -> %d", i, prev, p.TrialsDone)
		}
		prev = p.TrialsDone
		if p.TrialsTarget != opt.MaxTrials {
			t.Errorf("snapshot %d: target %d, want adaptive cap %d", i, p.TrialsTarget, opt.MaxTrials)
		}
		if (i == len(snaps)-1) != p.Done {
			t.Errorf("snapshot %d: Done=%t out of place", i, p.Done)
		}
	}
	final := snaps[len(snaps)-1]
	if final.TrialsDone != res.Trials || final.Failures != res.Failures {
		t.Errorf("final snapshot %d trials/%d failures, result %d/%d",
			final.TrialsDone, final.Failures, res.Trials, res.Failures)
	}
}

func TestAdaptiveReproducibleAcrossBatchSizes(t *testing.T) {
	// Trial t draws from the base seed's stream t whatever its batch, so
	// the same trial cap split into different batch sizes (Trials)
	// samples the same trials and must give the same result.
	opt := testOptions(500, 100, 0)
	opt.TargetFailures, opt.MaxTrials = 1<<30, 2000
	pol := Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)}
	a := RunContext(context.Background(), opt, pol)
	opt.Trials = 1000
	b := RunContext(context.Background(), opt, pol)
	if a.Trials != opt.MaxTrials || !reflect.DeepEqual(a, b) {
		t.Errorf("batches of 500 and 1000 trials diverged:\n %+v\n %+v", a, b)
	}
}

func TestRunContextCancelReportsProgress(t *testing.T) {
	// A cancelled run must still deliver its final snapshot so the caller
	// can show what it was doing.
	opt := testOptions(200000, 10, 0)
	opt.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	var final Progress
	opt.Progress = func(p Progress) {
		if p.Done {
			final = p
		}
		if p.TrialsDone > 0 {
			cancel()
		}
	}
	opt.ProgressInterval = time.Millisecond
	res := RunContext(ctx, opt, Policy{Predicate: ecc.NewParity(opt.Config, parity.OneDP)})
	cancel()
	if !res.Partial {
		t.Skip("run finished before cancellation took effect")
	}
	if !final.Done {
		t.Fatal("cancelled run delivered no final snapshot")
	}
	if final.TrialsDone != res.Trials {
		t.Errorf("final snapshot %d trials, partial result %d", final.TrialsDone, res.Trials)
	}
}
