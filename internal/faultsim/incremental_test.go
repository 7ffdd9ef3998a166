package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// enginePolicies returns the policy zoo the engine-level differential and
// allocation tests sweep: every predicate family, with and without
// TSV-SWAP and DDS.
func enginePolicies(cfg stack.Config) []Policy {
	return []Policy{
		{Predicate: ecc.NewParity(cfg, parity.OneDP)},
		{Predicate: ecc.NewParity(cfg, parity.ThreeDP)},
		{
			Name:       "Citadel",
			Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
			UseTSVSwap: true,
			NewSparer:  ddsSparer,
		},
		{Predicate: ecc.NewSymbol8(cfg, stack.SameBank)},
		{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels), UseTSVSwap: true},
		{Predicate: ecc.NewBCH6EC7ED(cfg)},
		{Predicate: ecc.NoProtection{}},
	}
}

// batchOnly hides a predicate's own incremental state, so ecc.Begin falls
// back to asking Uncorrectable about the whole live set after every
// change: the batch oracle. It keeps the predicate's Explain, so forensic
// reason chains match the incremental path's.
type batchOnly struct{ ecc.Predicate }

func (b batchOnly) Explain(live []fault.Fault) []ecc.Reason { return ecc.Explain(b.Predicate, live) }

// batchPolicy returns pol with its predicate evaluated by the batch oracle.
func batchPolicy(pol Policy) Policy {
	pol.Predicate = batchOnly{pol.Predicate}
	return pol
}

// TestIncrementalMatchesBatchEngine runs the full engine twice per policy —
// incremental evaluation vs the batch oracle — and requires bit-identical
// Results. This is the end-to-end companion of the per-predicate
// differential tests in internal/ecc.
func TestIncrementalMatchesBatchEngine(t *testing.T) {
	skipInShort(t)
	opt := testOptions(1500, 25, 800)
	opt.Seed = 12345
	opt.Workers = 1
	for _, pol := range enginePolicies(opt.Config) {
		pol := pol
		t.Run(pol.name(), func(t *testing.T) {
			inc := RunContext(context.Background(), opt, pol)
			batch := RunContext(context.Background(), opt, batchPolicy(pol))
			if !reflect.DeepEqual(inc, batch) {
				t.Errorf("incremental and batch engines disagree:\nincremental: %+v\nbatch:       %+v", inc, batch)
			}
		})
	}
}

// trialSequences pre-generates fault lifetimes (bypassing the sampler) so
// allocation measurements exercise only the trial loop.
func trialSequences(opt Options, n int) [][]fault.Fault {
	rng := rand.New(rand.NewSource(opt.Seed))
	s := fault.NewSampler(opt.Config, opt.Rates)
	out := make([][]fault.Fault, 0, n)
	for len(out) < n {
		fs := s.SampleLifetime(rng, opt.LifetimeHours)
		if len(fs) >= 2 {
			out = append(out, fs)
		}
	}
	return out
}

// TestTrialLoopAllocFree verifies the acceptance criterion directly: the
// steady-state multi-fault trial loop performs zero heap allocations per
// trial once the per-worker pools are warm, for every policy in the zoo.
func TestTrialLoopAllocFree(t *testing.T) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 50)
	for _, pol := range enginePolicies(opt.Config) {
		pol := pol
		t.Run(pol.name(), func(t *testing.T) {
			ts := newTrialState(opt.Config, pol, opt.ScrubIntervalHours)
			replay := func() {
				for _, fs := range seqs {
					ts.run(fs)
				}
			}
			replay() // warm pools and scratch buffers
			if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
				t.Errorf("%s: trial loop allocates %.2f per %d-trial replay, want 0",
					pol.name(), allocs, len(seqs))
			}
		})
	}
}

// TestSingleFaultFastPathAllocFree covers one-fault trials, the common
// case at realistic FIT rates, the same way: they run the same arrival
// loop as every other trial.
func TestSingleFaultFastPathAllocFree(t *testing.T) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 30)
	for _, pol := range enginePolicies(opt.Config) {
		pol := pol
		t.Run(pol.name(), func(t *testing.T) {
			ts := newTrialState(opt.Config, pol, opt.ScrubIntervalHours)
			replay := func() {
				for _, fs := range seqs {
					ts.run(fs[:1])
				}
			}
			replay()
			if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
				t.Errorf("%s: a one-fault trial allocates %.2f per %d-trial replay, want 0",
					pol.name(), allocs, len(seqs))
			}
		})
	}
}

// TestAppendLifetimeAllocFree verifies the sampling half of the trial loop:
// appending into a reused buffer allocates nothing once the buffer has
// grown to working size, and draws the same faults as SampleLifetime.
func TestAppendLifetimeAllocFree(t *testing.T) {
	opt := testOptions(0, 40, 1000).withDefaults()
	s := fault.NewSampler(opt.Config, opt.Rates)
	// Identity: same seed -> same faults through either entry point.
	fsA := s.SampleLifetime(rand.New(rand.NewSource(5)), opt.LifetimeHours)
	fsB := s.AppendLifetime(rand.New(rand.NewSource(5)), opt.LifetimeHours, nil)
	if !reflect.DeepEqual(fsA, fsB) {
		t.Fatalf("AppendLifetime diverges from SampleLifetime:\n%v\nvs\n%v", fsA, fsB)
	}
	rng := rand.New(rand.NewSource(6))
	buf := make([]fault.Fault, 0, 64)
	replay := func() {
		for i := 0; i < 20; i++ {
			buf = s.AppendLifetime(rng, opt.LifetimeHours, buf[:0])
		}
	}
	replay()
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("AppendLifetime allocates %.2f per 20-draw replay, want 0", allocs)
	}
}

// --- Retention-safety: the liveFaults aliasing hazard ------------------

// poisonFault is the garbage value the harness writes over the scratch
// buffer between evaluations.
func poisonFault() fault.Fault {
	return fault.Fault{
		Class:       fault.Bank,
		Persistence: fault.Permanent,
		Hours:       -1,
		Region: fault.Region{
			Stack: 0,
			Die:   fault.AllPattern(),
			Bank:  fault.AllPattern(),
			Row:   fault.AllPattern(),
			Col:   fault.AllPattern(),
		},
	}
}

// replayVerdicts evaluates p on growing prefixes of each sequence through
// one reused scratch buffer — exactly the engine's liveFaults discipline.
// With poison set, the buffer contents are overwritten with garbage after
// every call and restored before the next, so any predicate that retains
// the slice between calls observes the garbage and changes its verdicts.
func replayVerdicts(p ecc.Predicate, seqs [][]fault.Fault, poison bool) []bool {
	var verdicts []bool
	var scratch []fault.Fault
	for _, fs := range seqs {
		for n := 1; n <= len(fs); n++ {
			scratch = scratch[:0]
			scratch = append(scratch, fs[:n]...)
			verdicts = append(verdicts, p.Uncorrectable(scratch))
			if poison {
				for i := range scratch {
					scratch[i] = poisonFault()
				}
			}
		}
	}
	return verdicts
}

// retainingPredicate deliberately violates the no-retention contract: it
// keeps the live slice by reference and folds the retained view into the
// next verdict, the way a buggy caching evaluator would.
type retainingPredicate struct{ kept []fault.Fault }

func (r *retainingPredicate) Name() string { return "retaining" }

func (r *retainingPredicate) Uncorrectable(live []fault.Fault) bool {
	bad := false
	for _, f := range r.kept {
		if f.Hours < 0 { // sees the poison through the retained reference
			bad = true
		}
	}
	r.kept = live // retained without copying — the bug under test
	return bad
}

// TestPredicatesDoNotRetainLiveSlice enforces the Predicate contract: every
// stock evaluator must give identical verdicts whether or not the live
// slice is poisoned between calls (i.e. none of them retain it).
func TestPredicatesDoNotRetainLiveSlice(t *testing.T) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 25)
	cfg := opt.Config
	preds := []ecc.Predicate{
		ecc.NewParity(cfg, parity.OneDP),
		ecc.NewParity(cfg, parity.TwoDP),
		ecc.NewParity(cfg, parity.ThreeDP),
		ecc.NewSymbol8(cfg, stack.SameBank),
		ecc.NewSymbol8(cfg, stack.AcrossBanks),
		ecc.NewSymbol8(cfg, stack.AcrossChannels),
		ecc.NewSymbol8DeviceGranular(cfg, stack.AcrossChannels),
		ecc.NewBCH6EC7ED(cfg),
		ecc.NewTwoDECC(cfg),
		ecc.NewRAID5(cfg),
		ecc.NoProtection{},
	}
	for _, p := range preds {
		clean := replayVerdicts(p, seqs, false)
		poisoned := replayVerdicts(p, seqs, true)
		if !reflect.DeepEqual(clean, poisoned) {
			t.Errorf("%s: verdicts change when the live slice is poisoned between calls — the predicate retains the slice", p.Name())
		}
	}
}

// TestRetentionHarnessCatchesViolation is the meta-test: a predicate that
// does retain the slice must be caught by the poisoning harness, proving
// the harness has teeth.
func TestRetentionHarnessCatchesViolation(t *testing.T) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 10)
	clean := replayVerdicts(&retainingPredicate{}, seqs, false)
	poisoned := replayVerdicts(&retainingPredicate{}, seqs, true)
	if reflect.DeepEqual(clean, poisoned) {
		t.Fatal("poisoning harness failed to detect a slice-retaining predicate")
	}
}
