package fault

import "testing"

// FuzzPatternAlgebra checks Intersect, Intersects and CountBelow against
// direct enumeration on a bounded domain for arbitrary patterns.
func FuzzPatternAlgebra(f *testing.F) {
	f.Add(uint32(0xFF), uint32(7), uint32(0), uint32(0), uint32(3), uint32(100), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, m1, v1, lo1, hi1, m2, v2, lo2, hi2 uint32) {
		const domain = 512
		p := Pattern{Mask: m1 % domain, Val: v1 % domain, Lo: lo1 % domain, Hi: hi1 % domain}
		q := Pattern{Mask: m2 % domain, Val: v2 % domain, Lo: lo2 % domain, Hi: hi2 % domain}
		p.Val &= p.Mask
		q.Val &= q.Mask
		// Cap to the domain so brute force is exact.
		if p.Hi == 0 || p.Hi > domain {
			p.Hi = domain
		}
		if q.Hi == 0 || q.Hi > domain {
			q.Hi = domain
		}
		inter, interOK := p.Intersect(q)
		brute := false
		countP := 0
		for x := uint32(0); x < domain; x++ {
			inP := p.Contains(x)
			if inP {
				countP++
			}
			inBoth := inP && q.Contains(x)
			if inBoth {
				brute = true
			}
			if interOK && inter.Contains(x) != inBoth {
				t.Fatalf("Intersect(%+v,%+v) = %+v: Contains(%d) = %v, want %v", p, q, inter, x, !inBoth, inBoth)
			}
		}
		if interOK != brute {
			t.Fatalf("Intersect(%+v,%+v) ok = %v, brute %v", p, q, interOK, brute)
		}
		if got := p.Intersects(q); got != brute {
			t.Fatalf("Intersects(%+v,%+v) = %v, brute %v", p, q, got, brute)
		}
		if got := p.CountBelow(domain); got != countP {
			t.Fatalf("CountBelow(%+v) = %d, brute %d", p, got, countP)
		}
	})
}

// FuzzNextMatchMinimal checks nextMatch against the binary-search
// reference over full 32-bit inputs: the answer is the least x >= lo with
// x&mask == val, or none.
func FuzzNextMatchMinimal(f *testing.F) {
	f.Add(uint32(5), uint32(0b1010), uint32(0b1000))
	f.Add(^uint32(0), uint32(1), uint32(0))
	f.Fuzz(func(t *testing.T, lo, mask, val uint32) {
		val &= mask
		got, ok := nextMatch(lo, mask, val)
		want, wantOK := searchNextMatch(lo, mask, val)
		if ok != wantOK || got != want {
			t.Fatalf("nextMatch(%#x,%#x,%#x) = %#x,%v; reference %#x,%v", lo, mask, val, got, ok, want, wantOK)
		}
		if ok && (got < lo || got&mask != val) {
			t.Fatalf("nextMatch(%#x,%#x,%#x) = %#x is not a match at or above lo", lo, mask, val, got)
		}
	})
}
