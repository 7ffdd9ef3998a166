package fault

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/stack"
)

// The reference sampler: refPoisson runs Knuth's product from 1,
// refPlace draws every integer with rand.Intn and returns each Fault by
// value, and refSortByTime swaps neighbours, the plain forms of the
// sampler's inline zero-count test, per-range moduli, in-place placement
// and shifting sort. The sampler must draw the same faults from the same
// randomness.

// refAppendWindow is AppendWindow with fresh thresholds, rand.Intn
// draws, by-value placement and a swapping sort.
func refAppendWindow(s *Sampler, rng *rand.Rand, start, span float64, dst []Fault) []Fault {
	base := len(dst)
	for _, d := range s.draws[:s.nDraws] {
		for n := refPoisson(rng, d.perHour*span*d.dies); n > 0; n-- {
			var f Fault
			switch {
			case d.class != DataTSV:
				f = refPlace(s, rng, d.class, d.pers)
			case rng.Intn(s.cfg.DataTSVs+s.cfg.AddrTSVs) < s.cfg.DataTSVs:
				f = refPlace(s, rng, DataTSV, Permanent)
			default:
				f = refPlace(s, rng, AddrTSV, Permanent)
			}
			f.Hours = start + rng.Float64()*span
			dst = append(dst, f)
		}
	}
	refSortByTime(dst[base:])
	return dst
}

// refPoisson is Knuth's method for a Poisson(λ) draw: multiply uniforms
// from 1 until the product is at most exp(−λ). It draws nothing for
// λ <= 0.
func refPoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k := 0
	for p := 1.0; ; k++ {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
	}
}

// refPlace is place drawing through rand.Intn and returning the fault by
// value.
func refPlace(s *Sampler, rng *rand.Rand, c Class, p Persistence) Fault {
	cfg := s.cfg
	stk := rng.Intn(cfg.Stacks)
	die := rng.Intn(s.diesPerStack)
	bank := rng.Intn(cfg.BanksPerDie)
	row := rng.Intn(cfg.RowsPerBank)
	rowBits := uint32(cfg.RowBytes * 8)
	f := Fault{Class: c, Persistence: p}
	reg := Region{
		Stack: stk,
		Die:   ExactPattern(uint32(die)),
		Bank:  ExactPattern(uint32(bank)),
		Row:   ExactPattern(uint32(row)),
		Col:   AllPattern(),
	}
	switch c {
	case Bit:
		reg.Col = ExactPattern(uint32(rng.Intn(int(rowBits))))
	case Word:
		words := int(rowBits) / 64
		start := uint32(rng.Intn(words)) * 64
		reg.Col = MaskPattern(^uint32(63), start)
	case Column:
		reg.Col = ExactPattern(uint32(rng.Intn(int(rowBits))))
		reg.Row = refSubArrayRows(s, rng)
	case Row:
	case SubArray:
		reg.Row = refSubArrayRows(s, rng)
	case Bank:
		reg.Row = AllPattern()
	case DataTSV:
		f.TSV = rng.Intn(cfg.DataTSVs)
		reg.Bank = AllPattern()
		reg.Row = AllPattern()
		reg.Col = MaskPattern(uint32(cfg.DataTSVs-1), uint32(f.TSV))
	case AddrTSV:
		f.TSV = rng.Intn(cfg.AddrTSVs)
		reg.Bank = AllPattern()
		rowAddrBits := 0
		for 1<<uint(rowAddrBits) < cfg.RowsPerBank {
			rowAddrBits++
		}
		k := uint(rng.Intn(rowAddrBits))
		v := uint32(rng.Intn(2)) << k
		reg.Row = MaskPattern(1<<k, v)
	}
	f.Region = reg
	return f
}

// refSubArrayRows is subArrayRows drawing the sub-array through
// rand.Intn.
func refSubArrayRows(s *Sampler, rng *rand.Rand) Pattern {
	n := s.rates.SubArrayRows
	if n <= 0 || n >= s.cfg.RowsPerBank {
		return AllPattern()
	}
	start := uint32(rng.Intn(s.cfg.RowsPerBank/n)) * uint32(n)
	return RangePattern(start, start+uint32(n))
}

// refSortByTime is the swapping insertion sort.
func refSortByTime(fs []Fault) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Hours < fs[j-1].Hours; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// pcgSource is the engine's per-trial RNG source (internal/faultsim):
// reseeding it is cheap, so the test can walk many seeds.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), ^uint64(seed)) }
func (s *pcgSource) Uint64() uint64  { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// scaleClassRates multiplies every class rate, TSV included, by k.
func scaleClassRates(r Rates, k float64) Rates {
	for _, p := range []*float64{
		&r.BitTransient, &r.BitPermanent, &r.WordTransient, &r.WordPermanent,
		&r.ColumnTransient, &r.ColumnPermanent, &r.RowTransient, &r.RowPermanent,
		&r.BankTransient, &r.BankPermanent, &r.TSVPerDie,
	} {
		*p *= k
	}
	return r
}

// TestSamplerMatchesReference draws, for each of 10,000 seeds per rate
// set, a whole lifetime and then one suffix window from each of its
// arrival times, as multilevel splitting does (internal/rare), with the
// sampler and with the reference from identically seeded RNGs. The
// faults must be equal, prefix included, and so must the RNG's next
// value, which differs if a draw consumed different randomness. The last
// rate set runs on oddConfig, whose ranges are not powers of two.
func TestSamplerMatchesReference(t *testing.T) {
	const seeds = 10000
	for _, tc := range []struct {
		name  string
		cfg   stack.Config
		rates Rates
	}{
		{"table1", stack.DefaultConfig(), Table1()},
		{"table1+tsv1430", stack.DefaultConfig(), Table1().WithTSV(1430)},
		{"20xtable1", stack.DefaultConfig(), scaleClassRates(Table1(), 20)},
		{"zero", stack.DefaultConfig(), Rates{}},
		{"odd-geometry/20xtable1+tsv1430", oddConfig(), scaleClassRates(Table1(), 20).WithTSV(1430)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSampler(tc.cfg, tc.rates)
			gotRNG, wantRNG := rand.New(&pcgSource{}), rand.New(&pcgSource{})
			var got, want, lifetime []Fault
			faults, multi := 0, 0
			check := func(seed int64, start float64) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, window from %.1f h: sampler drew\n%v\nreference drew\n%v", seed, start, got, want)
				}
				if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
					t.Fatalf("seed %d, window from %.1f h: next RNG value %d, reference %d", seed, start, g, w)
				}
			}
			for seed := int64(0); seed < seeds; seed++ {
				gotRNG.Seed(seed)
				wantRNG.Seed(seed)
				got = s.AppendLifetime(gotRNG, LifetimeHours, got[:0])
				want = refAppendWindow(s, wantRNG, 0, LifetimeHours, want[:0])
				check(seed, 0)
				faults += len(want)
				if len(want) > 1 {
					multi++
				}
				lifetime = append(lifetime[:0], want...)
				for k, f := range lifetime {
					got = s.AppendWindow(gotRNG, f.Hours, LifetimeHours-f.Hours, append(got[:0], lifetime[:k+1]...))
					want = refAppendWindow(s, wantRNG, f.Hours, LifetimeHours-f.Hours, append(want[:0], lifetime[:k+1]...))
					check(seed, f.Hours)
				}
			}
			if tc.rates != (Rates{}) && multi == 0 {
				t.Fatalf("no multi-fault lifetime in %d seeds (%d faults): the sort went unchecked", seeds, faults)
			}
		})
	}
}
