package faultsim

import (
	"math/rand"
	randv2 "math/rand/v2"

	"repro/internal/fault"
)

// RNG seeding. Trial t of a run seeded s draws its lifetime from its own
// stream, deriveSeed(s, t), whatever worker, batch, chunk or host runs it,
// so a seeded result is a pure function of (seed, trial count). The
// splitmix64 finalizer scatters every (base, stream) pair across the full
// 64-bit space, so nearby seeds and trials get decorrelated streams.

// streamStep is the splitmix64 increment (the 64-bit golden ratio).
const streamStep uint64 = 0x9e3779b97f4a7c15

// splitStreamBase offsets the streams of multilevel-splitting stages.
const splitStreamBase uint64 = 1 << 43

// deriveSeed maps (base seed, stream index) to an RNG seed using the
// splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014).
func deriveSeed(base int64, stream uint64) int64 {
	z := uint64(base) + streamStep*(stream+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// SeedAt returns the seed of the run whose trial 0 is trial k of the run
// seeded base: deriveSeed is affine in its base, so trial t of a run
// seeded SeedAt(s, k) draws from deriveSeed(s, k+t). Adaptive batches and
// checkpoint chunks run on SeedAt(s, trials before them) and so sample
// exactly the trials of the unsplit run; importance sampling shifts by
// 2^42 trials to draw a sample independent of the plain run's.
func SeedAt(base int64, k uint64) int64 {
	return int64(uint64(base) + streamStep*k)
}

// SplitStreamSeed derives the RNG seed of one multilevel-splitting stage
// (the oracle in internal/rare's tests), which draws many trajectories
// from one stream.
func SplitStreamSeed(base int64, stage int) int64 {
	return deriveSeed(base, splitStreamBase+uint64(stage))
}

// pcgSource adapts math/rand/v2's PCG to math/rand.Source64. Reseeding it
// is O(1) and allocates nothing, so a worker can reseed before every
// trial; math/rand.NewSource costs microseconds and kilobytes per seed.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), ^uint64(seed)) }
func (s *pcgSource) Uint64() uint64  { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// newTrialRand returns an RNG for drawLifetime, one per worker.
func newTrialRand() *rand.Rand { return rand.New(&pcgSource{}) }

// drawLifetime appends to dst the lifetime of trial t of the run seeded
// base: the one seeding rule, shared by the executor and forensic replay.
func drawLifetime(rng *rand.Rand, src Arrivals, base int64, t int, hours float64, dst []fault.Fault) []fault.Fault {
	rng.Seed(deriveSeed(base, uint64(t)))
	return src.AppendLifetime(rng, hours, dst)
}
