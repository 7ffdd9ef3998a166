package ecc

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// incrementalPredicates enumerates every predicate that implements
// IncrementalPredicate, in both DefaultConfig geometry and all striping
// layouts, so the differential tests cover the whole zoo.
func incrementalPredicates() []IncrementalPredicate {
	c := stack.DefaultConfig()
	return []IncrementalPredicate{
		NewSymbol8(c, stack.SameBank),
		NewSymbol8(c, stack.AcrossBanks),
		NewSymbol8(c, stack.AcrossChannels),
		NewSymbol8DeviceGranular(c, stack.AcrossBanks),
		NewSymbol8DeviceGranular(c, stack.AcrossChannels),
		NewBCH6EC7ED(c),
		NewTwoDECC(c),
		NewParity(c, parity.OneDP),
		NewParity(c, parity.TwoDP),
		NewParity(c, parity.ThreeDP),
		NewRAID5(c),
		NoProtection{},
	}
}

// sampleFaultPool draws realistic faults from the Monte Carlo sampler
// itself, so the differential test exercises exactly the footprint shapes
// the engine produces (plus TSV faults via a nonzero TSV FIT rate).
func sampleFaultPool(rng *rand.Rand, n int) []fault.Fault {
	cfg := stack.DefaultConfig()
	rates := fault.Table1().WithTSV(500)
	s := fault.NewSampler(cfg, rates)
	var pool []fault.Fault
	for len(pool) < n {
		pool = append(pool, s.SampleLifetime(rng, 7*365*24)...)
	}
	return pool[:n]
}

// replayDifferential drives one random add/remove sequence through st,
// comparing against the batch oracle p.Uncorrectable after every step.
func replayDifferential(t *testing.T, p IncrementalPredicate, st IncrementalState,
	pool []fault.Fault, rng *rand.Rand, steps int) {
	t.Helper()
	st.Reset()
	var cur []fault.Fault
	for step := 0; step < steps; step++ {
		var got bool
		if len(cur) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(cur))
			f := cur[i]
			cur = append(cur[:i], cur[i+1:]...)
			got = st.Remove(f)
		} else {
			f := pool[rng.Intn(len(pool))]
			cur = append(cur, f)
			got = st.Add(f)
		}
		want := p.Uncorrectable(cur)
		if got != want {
			t.Fatalf("%s step %d: incremental = %v, batch = %v\nlive: %v",
				p.Name(), step, got, want, cur)
		}
		if st.Uncorrectable() != got {
			t.Fatalf("%s step %d: Uncorrectable() disagrees with Add/Remove return", p.Name(), step)
		}
	}
}

// TestIncrementalMatchesBatchOracle replays random fault sequences through
// every incremental evaluator and requires the verdict to match the batch
// Uncorrectable on the same multiset after every single Add and Remove.
func TestIncrementalMatchesBatchOracle(t *testing.T) {
	rng := newTestRand()
	pool := sampleFaultPool(rng, 300)
	for _, p := range incrementalPredicates() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			st := p.Begin()
			for seq := 0; seq < 25; seq++ {
				replayDifferential(t, p, st, pool, rng, 3+rng.Intn(12))
			}
		})
	}
}

// FuzzIncrementalMatchesBatch fuzzes the add/remove schedule: the fuzz
// input selects which pool faults to add and when to remove, and the
// incremental verdict must track the batch oracle throughout.
func FuzzIncrementalMatchesBatch(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0x80, 3})
	f.Fuzz(func(t *testing.T, seed int64, schedule []byte) {
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		pool := sampleFaultPool(rng, 64)
		for _, p := range incrementalPredicates() {
			st := p.Begin()
			var cur []fault.Fault
			for _, op := range schedule {
				var got bool
				if op >= 0x80 && len(cur) > 0 {
					i := int(op&0x7f) % len(cur)
					f := cur[i]
					cur = append(cur[:i], cur[i+1:]...)
					got = st.Remove(f)
				} else {
					f := pool[int(op)%len(pool)]
					cur = append(cur, f)
					got = st.Add(f)
				}
				if want := p.Uncorrectable(cur); got != want {
					t.Fatalf("%s: incremental = %v, batch = %v on %v", p.Name(), got, want, cur)
				}
			}
		}
	})
}

// TestIncrementalSteadyStateAllocFree verifies the per-trial Add/Remove/
// Reset loop allocates nothing once warm, for every evaluator.
func TestIncrementalSteadyStateAllocFree(t *testing.T) {
	rng := newTestRand()
	pool := sampleFaultPool(rng, 40)
	for _, p := range incrementalPredicates() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			st := p.Begin()
			replay := func() {
				st.Reset()
				for _, f := range pool {
					st.Add(f)
				}
				for i := len(pool) - 1; i >= 0; i-- {
					st.Remove(pool[i])
				}
			}
			replay() // warm scratch buffers
			if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
				t.Errorf("%s: steady-state loop allocates %.1f per replay, want 0", p.Name(), allocs)
			}
		})
	}
}

// batchOnly hides a predicate's own Begin, so Begin falls back to the
// state that keeps the live multiset and asks Uncorrectable after every
// change.
type batchOnly struct{ Predicate }

// TestBeginBatchStateMatchesUncorrectable drives Begin's batch state for
// every stock predicate, with its own Begin hidden, over random add/remove
// schedules that re-add live faults and remove absent ones, and checks
// every verdict against Uncorrectable on the same multiset.
func TestBeginBatchStateMatchesUncorrectable(t *testing.T) {
	rng := newTestRand()
	pool := sampleFaultPool(rng, 24)
	absent := pool[len(pool)-4:] // never added, only removed
	pool = pool[:len(pool)-4]
	var verdicts [2]int
	for _, p := range incrementalPredicates() {
		st := Begin(batchOnly{p})
		if _, ok := st.(*batchState); !ok {
			t.Fatalf("%s: Begin on a predicate without its own state returned %T", p.Name(), st)
		}
		var duplicates, absentRemovals int
		for seq := 0; seq < 40; seq++ {
			st.Reset()
			var cur []fault.Fault
			for step := 0; step < 4+rng.Intn(12); step++ {
				var got bool
				switch op := rng.Intn(5); {
				case op == 0 && len(cur) > 0:
					f := cur[rng.Intn(len(cur))]
					cur = append(cur, f)
					duplicates++
					got = st.Add(f)
				case op == 1 && len(cur) > 0:
					i := rng.Intn(len(cur))
					f := cur[i]
					cur = append(cur[:i], cur[i+1:]...)
					got = st.Remove(f)
				case op == 2:
					absentRemovals++
					got = st.Remove(absent[rng.Intn(len(absent))])
				default:
					f := pool[rng.Intn(len(pool))]
					cur = append(cur, f)
					got = st.Add(f)
				}
				if want := p.Uncorrectable(cur); got != want || st.Uncorrectable() != want {
					t.Fatalf("%s step %d: batch state = %v (Uncorrectable() %v), Uncorrectable on the multiset = %v\nlive: %v",
						p.Name(), step, got, st.Uncorrectable(), want, cur)
				}
				if got {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
		if duplicates == 0 || absentRemovals == 0 {
			t.Fatalf("%s: schedule drew %d duplicate adds and %d absent removals, want both", p.Name(), duplicates, absentRemovals)
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (correctable, uncorrectable) = %v, want both kinds", verdicts)
	}
}
