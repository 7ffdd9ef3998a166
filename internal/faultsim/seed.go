package faultsim

// RNG stream derivation. Workers and adaptive batches each need their own
// decorrelated math/rand stream. Deriving them by adding small multiples
// of the base seed (the scheme this replaced) has two failure modes:
// distinct (batch, worker) pairs can collide exactly — batch 1000 at
// step 1e6 equals worker 1 at step 1e9 — and nearby additive seeds feed
// math/rand's lagged-Fibonacci generator visibly correlated streams. A
// splitmix64-style finalizer instead scatters every (base, stream) pair
// across the full 64-bit space.

// Stream-index spaces. Worker streams are dense small integers; adaptive
// batch streams start far above any plausible worker count so the two
// spaces cannot overlap for the same base seed; checkpoint-chunk streams
// of durable campaigns (internal/jobs) get a third disjoint space.
const (
	batchStreamBase uint64 = 1 << 40
	chunkStreamBase uint64 = 1 << 41
	rareStreamBase  uint64 = 1 << 42
	splitStreamBase uint64 = 1 << 43
)

// streamStep is the splitmix64 increment (the 64-bit golden ratio).
const streamStep uint64 = 0x9e3779b97f4a7c15

// deriveSeed maps (base seed, stream index) to an RNG seed using the
// splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014). Equal inputs
// give equal outputs, keeping seeded runs reproducible; distinct streams
// are decorrelated whatever their numeric distance.
func deriveSeed(base int64, stream uint64) int64 {
	z := uint64(base) + streamStep*(stream+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ChunkSeed derives the base seed of checkpoint chunk i of a durable
// campaign (internal/jobs). Chunks are independent sub-runs merged with
// Merge; giving each its own decorrelated stream makes a campaign's
// result a pure function of (base seed, chunk layout, worker count), so
// a resumed campaign reproduces an uninterrupted one bit for bit. The
// chunk space is disjoint from worker and adaptive-batch streams.
func ChunkSeed(base int64, chunk int) int64 {
	return deriveSeed(base, chunkStreamBase+uint64(chunk))
}

// RareSeed shifts a base seed into the importance-sampling stream space
// (internal/rare): deriveSeed is affine in its base, so worker w of a run
// seeded RareSeed(s) draws from deriveSeed(s, rareStreamBase+w) — disjoint
// from the plain engine's worker streams, so a biased and a naive run
// sharing a base seed draw decorrelated fault histories.
func RareSeed(base int64) int64 {
	step := streamStep
	return int64(uint64(base) + step*rareStreamBase)
}

// SplitStreamSeed derives the RNG seed of one multilevel-splitting stage
// (internal/rare). Stages resample trajectory suffixes, so each needs
// its own stream, disjoint from every other seed space.
func SplitStreamSeed(base int64, stage int) int64 {
	return deriveSeed(base, splitStreamBase+uint64(stage))
}
