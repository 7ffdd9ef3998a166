package fault

import (
	"math/rand"
	"testing"

	"repro/internal/stack"
)

var (
	sinkPattern Pattern
	sinkOK      bool
)

// BenchmarkPatternIntersect measures one Intersect over pairs of the
// footprint shapes the sampler places and the parity predicate peels:
// exact indices, all values, sub-array row ranges, data-TSV bit strides
// and address-TSV half spaces, so every branch of nextMatch runs.
func BenchmarkPatternIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shape := func() Pattern {
		switch rng.Intn(5) {
		case 0:
			return ExactPattern(uint32(rng.Intn(1 << 16)))
		case 1:
			return AllPattern()
		case 2:
			start := uint32(rng.Intn(12)) * 5200
			return RangePattern(start, start+5200)
		case 3:
			return MaskPattern(255, uint32(rng.Intn(256)))
		default:
			k := uint(rng.Intn(16))
			return MaskPattern(1<<k, uint32(rng.Intn(2))<<k)
		}
	}
	pairs := make([][2]Pattern, 256)
	for i := range pairs {
		pairs[i] = [2]Pattern{shape(), shape()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &pairs[i%len(pairs)]
		sinkPattern, sinkOK = pr[0].Intersect(pr[1])
	}
}

// BenchmarkSamplerAppendLifetime measures drawing one seven-year lifetime
// at Table I rates with 1430 FIT/die of TSV faults into a reused buffer:
// the sampling half of every engine trial.
func BenchmarkSamplerAppendLifetime(b *testing.B) {
	s := NewSampler(stack.DefaultConfig(), Table1().WithTSV(1430))
	rng := rand.New(rand.NewSource(1))
	var buf []Fault
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AppendLifetime(rng, LifetimeHours, buf[:0])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}
