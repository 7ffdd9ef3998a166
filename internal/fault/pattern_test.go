package fault

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// The forms pattern.go's closed forms replaced, kept as the reference the
// tests compare against: nextMatch by binary search over the free bits,
// counts by the digit scan for every mask, and emptiness of an
// intersection decided by counting its members.

// spread distributes the low bits of f into the zero-bit positions of mask,
// from least significant upward (a software PDEP over ^mask).
func spread(f, mask uint32) uint32 {
	var out uint32
	free := ^mask
	for free != 0 {
		pos := uint32(bits.TrailingZeros32(free))
		if f&1 != 0 {
			out |= 1 << pos
		}
		f >>= 1
		free &= free - 1
	}
	return out
}

// searchNextMatch is nextMatch by binary search: y(f) = spread(f)|val is
// strictly increasing in the free-bit counter f, so it finds the least f
// with y(f) >= lo.
func searchNextMatch(lo, mask, val uint32) (uint32, bool) {
	val &= mask
	freeBits := uint(bits.OnesCount32(^mask))
	loF, hiF := uint64(0), uint64(1)<<freeBits // hiF exclusive
	if spread(uint32(hiF-1), mask)|val < lo {
		return 0, false
	}
	for loF < hiF {
		mid := (loF + hiF) / 2
		if spread(uint32(mid), mask)|val >= lo {
			hiF = mid
		} else {
			loF = mid + 1
		}
	}
	return spread(uint32(loF), mask) | val, true
}

// scanCountBelow is CountBelow by the digit scan for every mask.
func scanCountBelow(p Pattern, n uint32) int {
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	if p.Lo >= hi {
		return 0
	}
	return int(countMatchesBelow(hi, p.Mask, p.Val) - countMatchesBelow(p.Lo, p.Mask, p.Val))
}

// countIntersect is Intersect deciding emptiness by counting the members
// of the merged pattern below its bound (or below 2^32−1, plus a check of
// 2^32−1 itself, when unbounded).
func countIntersect(p, q Pattern) (Pattern, bool) {
	if (p.Val^q.Val)&(p.Mask&q.Mask) != 0 {
		return Pattern{}, false
	}
	out := Pattern{
		Mask: p.Mask | q.Mask,
		Val:  (p.Val | q.Val) & (p.Mask | q.Mask),
		Lo:   p.Lo,
		Hi:   p.Hi,
	}
	if q.Lo > out.Lo {
		out.Lo = q.Lo
	}
	if out.Hi == 0 || (q.Hi != 0 && q.Hi < out.Hi) {
		out.Hi = q.Hi
	}
	if out.Hi != 0 {
		if scanCountBelow(out, out.Hi) == 0 {
			return Pattern{}, false
		}
	} else if scanCountBelow(out, ^uint32(0)) == 0 && !out.Contains(^uint32(0)) {
		return Pattern{}, false
	}
	return out, true
}

func TestSpread(t *testing.T) {
	// spread over mask 0b0101: free bits are 1 and 3 (and upward).
	if got := spread(0b11, 0b0101); got != 0b1010 {
		t.Errorf("spread(0b11, 0b0101) = %#b, want 0b1010", got)
	}
	if got := spread(0, 0); got != 0 {
		t.Errorf("spread(0,0) = %d, want 0", got)
	}
	// With mask 0 every bit is free: spread is identity.
	if got := spread(0xABCD, 0); got != 0xABCD {
		t.Errorf("spread identity = %#x", got)
	}
}

// refPattern checks membership directly from the definition.
func refPattern(p Pattern, x uint32) bool {
	if x&p.Mask != p.Val {
		return false
	}
	if x < p.Lo {
		return false
	}
	if p.Hi != 0 && x >= p.Hi {
		return false
	}
	return true
}

// smallPattern generates patterns over a small domain so brute force works.
func smallPattern(rng *rand.Rand) Pattern {
	var p Pattern
	switch rng.Intn(5) {
	case 0:
		p = AllPattern()
	case 1:
		p = ExactPattern(uint32(rng.Intn(1024)))
	case 2:
		mask := uint32(rng.Intn(1024))
		p = MaskPattern(mask, uint32(rng.Intn(1024)))
	case 3:
		lo := uint32(rng.Intn(1024))
		p = RangePattern(lo, lo+uint32(rng.Intn(1024))+1)
	case 4:
		mask := uint32(rng.Intn(1024))
		lo := uint32(rng.Intn(1024))
		p = Pattern{Mask: mask, Val: uint32(rng.Intn(1024)) & mask, Lo: lo, Hi: lo + uint32(rng.Intn(512)) + 1}
	}
	return p
}

func TestPatternContainsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := smallPattern(rng)
		for x := uint32(0); x < 2048; x++ {
			if p.Contains(x) != refPattern(p, x) {
				t.Fatalf("pattern %+v disagrees at %d", p, x)
			}
		}
	}
}

func TestIntersectsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		p := smallPattern(rng)
		q := smallPattern(rng)
		brute := false
		for x := uint32(0); x < 4096; x++ {
			if p.Contains(x) && q.Contains(x) {
				brute = true
				break
			}
		}
		// Constrain to the small domain: p and q only have members below
		// 4096 when masks/ranges are small, which smallPattern guarantees
		// except for pure mask patterns that extend upward. Add a range cap
		// so brute force is exact.
		pc, qc := p, q
		if pc.Hi == 0 || pc.Hi > 4096 {
			pc.Hi = 4096
		}
		if qc.Hi == 0 || qc.Hi > 4096 {
			qc.Hi = 4096
		}
		if got := pc.Intersects(qc); got != brute {
			t.Fatalf("Intersects(%+v, %+v) = %v, brute = %v", pc, qc, got, brute)
		}
	}
}

func TestCountBelowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		p := smallPattern(rng)
		n := uint32(rng.Intn(4096))
		brute := 0
		for x := uint32(0); x < n; x++ {
			if p.Contains(x) {
				brute++
			}
		}
		if got := p.CountBelow(n); got != brute {
			t.Fatalf("CountBelow(%+v, %d) = %d, brute = %d", p, n, got, brute)
		}
	}
}

func TestNextMatch(t *testing.T) {
	cases := []struct {
		lo, mask, val uint32
		want          uint32
		ok            bool
	}{
		{0, 0, 0, 0, true},
		{5, 0, 0, 5, true},
		{5, ^uint32(0), 3, 0, false}, // exact 3 < 5: no match
		{3, ^uint32(0), 3, 3, true},  // exact hit
		{1, 0b10, 0b10, 2, true},     // next with bit1 set
		{3, 0b10, 0b10, 3, true},     // 3 has bit1 set
		{4, 0b10, 0b10, 6, true},     // skip 4,5
		{0xFFFFFFFF, 1, 0, 0, false}, // max value is odd; no even >= it
		{0xFFFFFFFE, 1, 0, 0xFFFFFFFE, true},
	}
	for _, tc := range cases {
		for name, next := range map[string]func(lo, mask, val uint32) (uint32, bool){
			"nextMatch": nextMatch, "searchNextMatch": searchNextMatch,
		} {
			got, ok := next(tc.lo, tc.mask, tc.val)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Errorf("%s(%#x,%#x,%#x) = %#x,%v want %#x,%v",
					name, tc.lo, tc.mask, tc.val, got, ok, tc.want, tc.ok)
			}
		}
	}
}

func TestNextMatchIsMinimal(t *testing.T) {
	f := func(lo uint16, mask uint16, rawVal uint16) bool {
		m, v := uint32(mask), uint32(rawVal)&uint32(mask)
		got, ok := nextMatch(uint32(lo), m, v)
		// Brute force over the 16-bit domain plus a margin.
		for x := uint32(lo); x < uint32(lo)+1<<17; x++ {
			if x&m == v {
				return ok && got == x
			}
		}
		return true // nothing in scanned window; accept either result
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegionOverlaps(t *testing.T) {
	mk := func(stk int, die, bank, row, col Pattern) Region {
		return Region{Stack: stk, Die: die, Bank: bank, Row: row, Col: col}
	}
	bankFault := mk(0, ExactPattern(2), ExactPattern(3), AllPattern(), AllPattern())
	bitInBank := mk(0, ExactPattern(2), ExactPattern(3), ExactPattern(100), ExactPattern(5))
	bitElsewhere := mk(0, ExactPattern(2), ExactPattern(4), ExactPattern(100), ExactPattern(5))
	otherStack := mk(1, ExactPattern(2), ExactPattern(3), AllPattern(), AllPattern())

	if !bankFault.Overlaps(bitInBank) {
		t.Error("bank fault should overlap bit fault in same bank")
	}
	if bankFault.Overlaps(bitElsewhere) {
		t.Error("bank fault should not overlap bit fault in other bank")
	}
	if bankFault.Overlaps(otherStack) {
		t.Error("faults in different stacks should not overlap")
	}
	if !bankFault.Overlaps(bankFault) {
		t.Error("fault should overlap itself")
	}
}

func TestRegionContainsCell(t *testing.T) {
	r := Region{
		Stack: 0,
		Die:   ExactPattern(1),
		Bank:  AllPattern(),
		Row:   MaskPattern(1<<3, 1<<3), // rows with bit 3 set
		Col:   AllPattern(),
	}
	if !r.ContainsCell(0, 1, 5, 8, 0) {
		t.Error("row 8 (bit3 set) should be contained")
	}
	if r.ContainsCell(0, 1, 5, 7, 0) {
		t.Error("row 7 (bit3 clear) should not be contained")
	}
	if r.ContainsCell(1, 1, 5, 8, 0) {
		t.Error("wrong stack should not be contained")
	}
}

func TestPatternFirstMatchesLinearScan(t *testing.T) {
	// First must agree with the brute-force smallest member for every
	// pattern shape the sampler produces (exact, mask/stride, range,
	// half-space) plus adversarial combinations.
	pats := []Pattern{
		AllPattern(),
		ExactPattern(0),
		ExactPattern(37),
		ExactPattern(1000), // outside small domains
		MaskPattern(255, 17),
		MaskPattern(1<<4, 1<<4),
		MaskPattern(1<<4, 0),
		RangePattern(10, 20),
		RangePattern(64, 64), // empty
		{Mask: 7, Val: 5, Lo: 30, Hi: 200},
		{Mask: 1 << 9, Val: 1 << 9, Lo: 100, Hi: 0},
		{Mask: ^uint32(0), Val: 513, Lo: 0, Hi: 514},
		{Mask: ^uint32(0), Val: 513, Lo: 0, Hi: 513}, // empty
	}
	for _, n := range []uint32{0, 1, 13, 64, 512, 1024} {
		for _, p := range pats {
			wantV, wantOK := uint32(0), false
			for v := uint32(0); v < n; v++ {
				if p.Contains(v) {
					wantV, wantOK = v, true
					break
				}
			}
			gotV, gotOK := p.First(n)
			if gotOK != wantOK || (wantOK && gotV != wantV) {
				t.Errorf("First(%v, n=%d) = (%d,%t), want (%d,%t)", p, n, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

// edgeMask draws a 32-bit mask from the shapes that reach every branch of
// nextMatch: none, all, one bit, a high band, a low band, or random bits.
func edgeMask(rng *rand.Rand) uint32 {
	k := uint(rng.Intn(32))
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return ^uint32(0)
	case 2:
		return 1 << k
	case 3:
		return ^uint32(0) << k
	case 4:
		return 1<<k - 1
	default:
		return rng.Uint32()
	}
}

// edgeBound draws a lower or upper bound near the interesting points of a
// mask/value pair: the ends of the 32-bit range, the pattern's least and
// greatest members, powers of two, or anywhere.
func edgeBound(rng *rand.Rand, mask, val uint32) uint32 {
	delta := uint32(rng.Intn(5)) - 2
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return ^uint32(0) - uint32(rng.Intn(3))
	case 2:
		return val&mask + delta
	case 3:
		return (val | ^mask) + delta
	case 4:
		return 1<<uint(rng.Intn(32)) + delta
	case 5:
		return val ^ 1<<uint(rng.Intn(32))
	default:
		return rng.Uint32()
	}
}

// edgePattern draws a full 32-bit pattern; its value is left unnormalized
// one time in eight, as callers may pass it.
func edgePattern(rng *rand.Rand) Pattern {
	p := Pattern{Mask: edgeMask(rng), Val: rng.Uint32()}
	if rng.Intn(8) != 0 {
		p.Val &= p.Mask
	}
	if rng.Intn(2) == 0 {
		p.Lo = edgeBound(rng, p.Mask, p.Val)
	}
	if rng.Intn(2) == 0 {
		p.Hi = edgeBound(rng, p.Mask, p.Val)
	}
	return p
}

// checkAgainstReference compares every closed form with the reference on
// one input: nextMatch(p.Lo, p.Mask, p.Val), p.First(n), p.CountBelow(n),
// p.Intersect(q) and p.Intersects(q).
func checkAgainstReference(t *testing.T, p, q Pattern, n uint32) {
	want, wantOK := searchNextMatch(p.Lo, p.Mask, p.Val)
	if got, ok := nextMatch(p.Lo, p.Mask, p.Val); ok != wantOK || got != want {
		t.Fatalf("nextMatch(%#x, %#x, %#x) = %#x,%v; reference %#x,%v", p.Lo, p.Mask, p.Val, got, ok, want, wantOK)
	}
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	if !wantOK || want >= hi {
		want, wantOK = 0, false
	}
	if got, ok := p.First(n); ok != wantOK || got != want {
		t.Fatalf("%+v.First(%#x) = %#x,%v; reference %#x,%v", p, n, got, ok, want, wantOK)
	}
	if got, want := p.CountBelow(n), scanCountBelow(p, n); got != want {
		t.Fatalf("%+v.CountBelow(%#x) = %d; digit scan %d", p, n, got, want)
	}
	wantPat, wantOK := countIntersect(p, q)
	if got, ok := p.Intersect(q); ok != wantOK || got != wantPat {
		t.Fatalf("%+v.Intersect(%+v) = %+v,%v; reference %+v,%v", p, q, got, ok, wantPat, wantOK)
	}
	if got := p.Intersects(q); got != wantOK {
		t.Fatalf("%+v.Intersects(%+v) = %v; reference %v", p, q, got, wantOK)
	}
}

// TestClosedFormsMatchReference checks nextMatch, First, CountBelow,
// Intersect and Intersects against the reference forms over full 32-bit
// inputs: random draws from edge masks and bounds, then every 8-bit mask
// with the high 24 bits free, masked, or only bit 31 masked, against every
// low byte of the value.
func TestClosedFormsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	random := 1 << 20
	if testing.Short() {
		random = 1 << 16
	}
	for i := 0; i < random; i++ {
		p := edgePattern(rng)
		checkAgainstReference(t, p, edgePattern(rng), edgeBound(rng, p.Mask, p.Val))
	}
	for _, high := range []uint32{0, ^uint32(0xFF), 1 << 31} {
		for m8 := uint32(0); m8 < 256; m8++ {
			mask := high | m8
			for v8 := uint32(0); v8 < 256; v8++ {
				val := (rng.Uint32()&^0xFF | v8) & mask
				loHigh := [...]uint32{0, val, val + 0x100, ^uint32(0)}[rng.Intn(4)] &^ 0xFF
				p := Pattern{Mask: mask, Val: val, Lo: loHigh | uint32(rng.Intn(256)), Hi: edgeBound(rng, mask, val)}
				checkAgainstReference(t, p, edgePattern(rng), edgeBound(rng, mask, val))
			}
		}
	}
}
