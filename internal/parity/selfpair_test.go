package parity

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// selfPairConfig is a small geometry whose domains are not powers of two
// and whose die domain includes an ECC die, so patterns can have members
// past the domain in every coordinate.
func selfPairConfig() stack.Config {
	return stack.Config{
		Stacks:      1,
		DataDies:    4,
		ECCDies:     1,
		BanksPerDie: 3,
		RowsPerBank: 6,
		RowBytes:    2,
		LineBytes:   2,
		DataTSVs:    8,
		AddrTSVs:    3,
		BurstLength: 2,
	}
}

// widePattern draws a pattern over [0, n) whose masks, values and ranges
// reach up to 4n, past the domain.
func widePattern(rng *rand.Rand, n int) fault.Pattern {
	w := func() uint32 { return uint32(rng.Intn(4 * n)) }
	switch rng.Intn(5) {
	case 0:
		return fault.AllPattern()
	case 1:
		return fault.ExactPattern(w())
	case 2:
		return fault.MaskPattern(w(), w())
	case 3:
		lo := w()
		return fault.RangePattern(lo, lo+1+w())
	default:
		p := fault.MaskPattern(w(), w())
		p.Lo = w()
		if rng.Intn(2) == 0 {
			p.Hi = p.Lo + 1 + w()
		}
		return p
	}
}

// unitCount returns the region's unit count in dimension d.
func unitCount(ri *regionInfo, d Dim) int {
	switch d {
	case Dim1:
		return ri.u1
	case Dim2:
		return ri.u2
	default:
		return ri.u3
	}
}

// TestSelfPairSkip checks the rule that lets lostIn skip a fault's pair
// with itself: a dimension in a region's selfClear must give the pair no
// blocked piece. Regions range over data and ECC dies with masks and
// ranges past the domain, where a pattern can hold one unit in the domain
// and more past it; the test requires such regions to occur, since there a
// rule that sets the flag on a unit count of one alone is wrong. The
// incremental State, which applies the skip, must also keep agreeing with
// the batch Analyzer on sets of these regions.
func TestSelfPairSkip(t *testing.T) {
	cfg := selfPairConfig()
	rng := rand.New(rand.NewSource(41))
	an := NewAnalyzer(cfg, ThreeDP)
	dies := cfg.DataDies + cfg.ECCDies
	random := func() fault.Region {
		return fault.Region{
			Die:  widePattern(rng, dies),
			Bank: widePattern(rng, cfg.BanksPerDie),
			Row:  widePattern(rng, cfg.RowsPerBank),
			Col:  widePattern(rng, cfg.RowBytes*8),
		}
	}
	var flagged, oneUnitNotClear int
	for i := 0; i < 20000; i++ {
		r := random()
		var ri regionInfo
		an.setInfo(&ri, &r)
		for _, d := range []Dim{Dim1, Dim2, Dim3} {
			pieces := an.appendBlockedPieces(nil, d, &r, &ri)
			if ri.selfClear&Dims(d) != 0 {
				flagged++
				if len(pieces) != 0 {
					t.Fatalf("dim %d: selfClear is set but the self pair blocks %d pieces\nregion %+v\npieces %+v",
						d, len(pieces), r, pieces)
				}
			} else if unitCount(&ri, d) == 1 && len(pieces) != 0 {
				oneUnitNotClear++
			}
		}
	}
	if flagged == 0 || oneUnitNotClear == 0 {
		t.Fatalf("draws reached %d flagged dimensions and %d one-unit dimensions with self pieces; want both",
			flagged, oneUnitNotClear)
	}

	for _, dims := range []Dims{OneDP, TwoDP, ThreeDP} {
		an := NewAnalyzer(cfg, dims)
		st := an.NewState()
		for seq := 0; seq < 400; seq++ {
			st.Reset()
			var set []fault.Region
			for n := 1 + rng.Intn(5); len(set) < n; {
				r := random()
				set = append(set, r)
				if got, want := st.Add(r), an.Uncorrectable(set); got != want {
					t.Fatalf("%v: incremental = %v, batch = %v\nset %+v", dims, got, want, set)
				}
			}
		}
	}
}

// TestSelfPairSkipOnSampledFaults: for every fault the sampler places, in
// every class and in each stack organization, the self-pair flag of a
// dimension is set exactly when the fault occupies one unit there. So on
// sampled faults the exactness guard of the rule costs nothing: their
// single-unit coordinates are always exact patterns.
func TestSelfPairSkipOnSampledFaults(t *testing.T) {
	const fit = 100
	rates := fault.Rates{
		BitTransient: fit, BitPermanent: fit,
		WordTransient: fit, WordPermanent: fit,
		ColumnTransient: fit, ColumnPermanent: fit,
		RowTransient: fit, RowPermanent: fit,
		BankTransient: fit, BankPermanent: fit,
		TSVPerDie:        fit,
		SubArrayFraction: 0.5,
		SubArrayRows:     5200,
	}
	for _, org := range stack.Organizations() {
		cfg := org.Config
		an := NewAnalyzer(cfg, ThreeDP)
		s := fault.NewSampler(cfg, rates)
		rng := rand.New(rand.NewSource(43))
		// About two events of each class and persistence per window.
		span := 2 / (fit * 1e-9 * float64(cfg.Stacks*(cfg.DataDies+cfg.ECCDies)))
		seen := make(map[fault.Class]int)
		var faults []fault.Fault
		for w := 0; w < 200; w++ {
			faults = s.AppendWindow(rng, 0, span, faults[:0])
			for _, f := range faults {
				seen[f.Class]++
				var ri regionInfo
				an.setInfo(&ri, &f.Region)
				for _, d := range []Dim{Dim1, Dim2, Dim3} {
					if clear, one := ri.selfClear&Dims(d) != 0, unitCount(&ri, d) == 1; clear != one {
						t.Fatalf("%s %v dim %d: selfClear %v with %d units\nregion %+v",
							org.Name, f.Class, d, clear, unitCount(&ri, d), f.Region)
					}
				}
			}
		}
		for c := fault.Bit; c <= fault.AddrTSV; c++ {
			if seen[c] == 0 {
				t.Errorf("%s: the sampler placed no %v fault", org.Name, c)
			}
		}
	}
}
