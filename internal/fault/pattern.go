package fault

import "math/bits"

// Pattern describes a set of non-negative integers (die, bank, row, or
// bit-column indices) in a form closed under the intersections the fault
// algebra needs. A value x belongs to the pattern when
//
//	x & Mask == Val  &&  Lo <= x < Hi
//
// Hi == 0 means "no upper bound". The mask/value part captures exact
// locations (Mask = all ones), "everything" (Mask = 0), strided sets such as
// the bits carried by one data TSV (Mask = TSVs-1), and the half-address
// spaces produced by a faulty address TSV (Mask = 1<<k). The range part
// captures contiguous extents such as a sub-array's rows.
type Pattern struct {
	Mask, Val uint32
	Lo, Hi    uint32
}

// AllPattern matches every index.
func AllPattern() Pattern { return Pattern{} }

// ExactPattern matches only v.
func ExactPattern(v uint32) Pattern { return Pattern{Mask: ^uint32(0), Val: v} }

// MaskPattern matches {x : x&mask == val}.
func MaskPattern(mask, val uint32) Pattern { return Pattern{Mask: mask, Val: val & mask} }

// RangePattern matches [lo, hi).
func RangePattern(lo, hi uint32) Pattern { return Pattern{Lo: lo, Hi: hi} }

// Contains reports whether x belongs to the pattern.
func (p Pattern) Contains(x uint32) bool {
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

// nextMatch returns the smallest x >= lo with x&mask == val, and whether one
// exists within 32-bit range. It works at h, the highest masked bit where lo
// disagrees with val. Above h, lo already matches. If val has a 1 at h, the
// answer keeps lo above h and takes val's bits from h down (free bits 0).
// Otherwise x must exceed lo at a free bit above h where lo has a 0: adding
// one to lo with every masked bit and every bit up to h set carries into the
// lowest such bit, and a carry out of bit 31 means there is none.
func nextMatch(lo, mask, val uint32) (uint32, bool) {
	val &= mask
	diff := (lo ^ val) & mask
	if diff == 0 {
		return lo, true
	}
	h := uint32(1) << (31 - bits.LeadingZeros32(diff))
	low := h | (h - 1)
	if val&h != 0 {
		return lo&^low | val&low, true
	}
	carried := (lo | mask | low) + 1
	if carried == 0 {
		return 0, false
	}
	return carried&^mask | val, true
}

// Intersect returns the intersection of two patterns and whether it is
// non-empty. Patterns are closed under intersection: masks merge when their
// shared bits agree and ranges tighten. An empty intersection returns the
// zero Pattern.
func (p Pattern) Intersect(q Pattern) (Pattern, bool) {
	if (p.Val^q.Val)&(p.Mask&q.Mask) != 0 {
		return Pattern{}, false
	}
	out := Pattern{
		Mask: p.Mask | q.Mask,
		Val:  (p.Val | q.Val) & (p.Mask | q.Mask),
		Lo:   max(p.Lo, q.Lo),
		Hi:   p.Hi,
	}
	if out.Hi == 0 || (q.Hi != 0 && q.Hi < out.Hi) {
		out.Hi = q.Hi
	}
	x, ok := nextMatch(out.Lo, out.Mask, out.Val)
	if !ok || (out.Hi != 0 && x >= out.Hi) {
		return Pattern{}, false
	}
	return out, true
}

// Intersects reports whether two patterns share at least one value.
func (p Pattern) Intersects(q Pattern) bool {
	_, ok := p.Intersect(q)
	return ok
}

// First returns the smallest member of the pattern in [0, n), if any. An
// exact pattern, the shape most footprint coordinates take, is answered
// directly, as in CountBelow.
func (p Pattern) First(n uint32) (uint32, bool) {
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	if p.Mask == ^uint32(0) {
		if p.Val >= p.Lo && p.Val < hi {
			return p.Val, true
		}
		return 0, false
	}
	x, ok := nextMatch(p.Lo, p.Mask, p.Val)
	if !ok || x >= hi {
		return 0, false
	}
	return x, true
}

// countMatchesBelow returns |{x < hi : x&mask == val}| by scanning bit
// positions of hi from high to low (a digit DP over the binary expansion).
func countMatchesBelow(hi, mask, val uint32) uint64 {
	var count uint64
	for b := 31; b >= 0; b-- {
		bit := uint32(1) << uint(b)
		if hi&bit == 0 {
			continue
		}
		// Count x that agree with hi on bits above b, have 0 at bit b, and
		// anything in the free (unmasked) bits below b.
		high := ^(bit | (bit - 1))
		if (hi^val)&mask&high != 0 {
			continue
		}
		if mask&bit != 0 && val&bit != 0 {
			continue
		}
		freeLow := bits.OnesCount32(^mask & (bit - 1))
		count += 1 << uint(freeLow)
	}
	return count
}

// CountBelow returns |{x in pattern : x < n}|, the number of pattern members
// in [0, n). Used for sizing fault footprints (e.g. rows needing sparing).
// Exact and all-value patterns, the shapes most footprints take, are
// answered directly; other masks take the digit scan.
func (p Pattern) CountBelow(n uint32) int {
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	if p.Lo >= hi {
		return 0
	}
	switch p.Mask {
	case ^uint32(0):
		if p.Val >= p.Lo && p.Val < hi {
			return 1
		}
		return 0
	case 0:
		return int(hi - p.Lo)
	}
	return int(countMatchesBelow(hi, p.Mask, p.Val) - countMatchesBelow(p.Lo, p.Mask, p.Val))
}
