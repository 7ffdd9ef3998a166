// Package parity implements the correction algebra of Citadel's
// Tri-Dimensional Parity (3DP) scheme (paper §VI) and its 1DP/2DP
// ablations.
//
// 3DP maintains XOR parity along three orthogonal dimensions of a stack:
//
//	Dimension 1: for each row index, across every (die, bank) pair —
//	             materialized in a parity bank (handles bank failures).
//	Dimension 2: for each die, across all (bank, row) pairs — one on-chip
//	             parity row per die.
//	Dimension 3: for each bank index, across all (die, row) pairs — one
//	             on-chip parity row per bank index.
//
// Reconstruction works bit-column-wise: the Dimension-1 parity cell for
// (row r, column c) is the XOR over all (die, bank) of cell (die, bank, r,
// c), and similarly for the other dimensions. A faulty cell is recoverable
// through a dimension iff it is the only faulty cell in that dimension's
// reconstruction group; it is lost iff every enabled dimension's group also
// contains another faulty cell. A fault pattern is uncorrectable when at
// least one cell is lost.
//
// The package computes this cell-precise condition exactly — without
// enumerating cells — by closing fault footprints (fault.Region) under
// intersection and complement-of-a-point, so correctability of a whole
// lifetime's fault set reduces to a small number of footprint
// intersections.
package parity

import (
	"repro/internal/fault"
	"repro/internal/stack"
)

// Dim identifies one parity dimension.
type Dim int

const (
	// Dim1 is the across-banks-and-dies (parity bank) dimension.
	Dim1 Dim = 1 << iota
	// Dim2 is the within-die dimension.
	Dim2
	// Dim3 is the same-bank-index-across-dies dimension.
	Dim3
)

// Dims is a set of enabled dimensions.
type Dims int

const (
	// OneDP enables only the parity bank (Dimension 1).
	OneDP = Dims(Dim1)
	// TwoDP enables Dimensions 1 and 2.
	TwoDP = Dims(Dim1 | Dim2)
	// ThreeDP enables all three dimensions (full 3DP).
	ThreeDP = Dims(Dim1 | Dim2 | Dim3)
)

// String names the configuration as the paper does.
func (d Dims) String() string {
	switch d {
	case OneDP:
		return "1DP"
	case TwoDP:
		return "2DP"
	case ThreeDP:
		return "3DP"
	default:
		return "parity-dims"
	}
}

// List returns the individual dimensions enabled in d.
func (d Dims) List() []Dim {
	var out []Dim
	for _, dim := range []Dim{Dim1, Dim2, Dim3} {
		if d&Dims(dim) != 0 {
			out = append(out, dim)
		}
	}
	return out
}

// intersectRegion intersects two footprints dimension-wise.
func intersectRegion(a, b fault.Region) (fault.Region, bool) {
	if a.Stack != b.Stack {
		return fault.Region{}, false
	}
	out := fault.Region{Stack: a.Stack}
	var ok bool
	if out.Die, ok = a.Die.Intersect(b.Die); !ok {
		return fault.Region{}, false
	}
	if out.Bank, ok = a.Bank.Intersect(b.Bank); !ok {
		return fault.Region{}, false
	}
	if out.Row, ok = a.Row.Intersect(b.Row); !ok {
		return fault.Region{}, false
	}
	if out.Col, ok = a.Col.Intersect(b.Col); !ok {
		return fault.Region{}, false
	}
	return out, true
}

// notExact returns patterns whose union is {x in [0, 2^bits) : x != v}.
// The pieces may overlap; callers only test emptiness of intersections, so
// overlap is harmless.
func notExact(v uint32, bits int) []fault.Pattern {
	out := make([]fault.Pattern, 0, bits)
	for j := 0; j < bits; j++ {
		m := uint32(1) << uint(j)
		out = append(out, fault.MaskPattern(m, ^v&m))
	}
	return out
}

// Analyzer evaluates correctability of fault sets under a parity-dimension
// configuration.
type Analyzer struct {
	cfg     stack.Config
	dims    Dims
	dimList []Dim // dims.List(), cached — the hot paths ask per fault pair

	dieDomain                  int // data dies + metadata dies all carry parity
	dieBits, bankBits, rowBits int
	rowsPerBank                uint32
	colDomain                  uint32
}

// NewAnalyzer builds an analyzer for the geometry and enabled dimensions.
// The parity dimensions span the metadata die as well as the data dies
// (paper §VI-B: Dimension 2 keeps one parity row for each of the 9 dies).
func NewAnalyzer(cfg stack.Config, dims Dims) *Analyzer {
	dieDomain := cfg.DataDies + cfg.ECCDies
	return &Analyzer{
		cfg:         cfg,
		dims:        dims,
		dimList:     dims.List(),
		dieDomain:   dieDomain,
		dieBits:     log2ceil(dieDomain),
		bankBits:    log2ceil(cfg.BanksPerDie),
		rowBits:     log2ceil(cfg.RowsPerBank),
		rowsPerBank: uint32(cfg.RowsPerBank),
		colDomain:   uint32(cfg.RowBytes * 8),
	}
}

// Dims returns the enabled dimension set.
func (an *Analyzer) Dims() Dims { return an.dims }

func log2ceil(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// firstValue returns the smallest member of p within [0, n); it must exist.
func firstValue(p fault.Pattern, n uint32) uint32 {
	if v, ok := p.First(n); ok {
		return v
	}
	return 0
}

// blockedPieces returns regions whose union is the set of cells of A whose
// dim-D reconstruction group also contains a cell of B (other than the cell
// itself). Both regions must be in the same stack (checked by the caller).
func (an *Analyzer) blockedPieces(d Dim, a, b fault.Region) []fault.Region {
	switch d {
	case Dim1:
		// Group of cell x: same (row, col), any (die, bank).
		base := a
		var ok bool
		if base.Row, ok = a.Row.Intersect(b.Row); !ok {
			return nil
		}
		if base.Col, ok = a.Col.Intersect(b.Col); !ok {
			return nil
		}
		units := b.Die.CountBelow(uint32(an.dieDomain)) * b.Bank.CountBelow(uint32(an.cfg.BanksPerDie))
		if units != 1 {
			return []fault.Region{base}
		}
		// B occupies exactly one (die, bank): only A-cells in a DIFFERENT
		// unit are blocked by it.
		bd := firstValue(b.Die, uint32(an.dieDomain))
		bb := firstValue(b.Bank, uint32(an.cfg.BanksPerDie))
		return an.splitNotUnit(base, bd, bb)
	case Dim2:
		// Group of cell x: same (die, col), any (bank, row).
		base := a
		var ok bool
		if base.Die, ok = a.Die.Intersect(b.Die); !ok {
			return nil
		}
		if base.Col, ok = a.Col.Intersect(b.Col); !ok {
			return nil
		}
		units := b.Bank.CountBelow(uint32(an.cfg.BanksPerDie)) * b.Row.CountBelow(an.rowsPerBank)
		if units != 1 {
			return []fault.Region{base}
		}
		bb := firstValue(b.Bank, uint32(an.cfg.BanksPerDie))
		br := firstValue(b.Row, an.rowsPerBank)
		return an.splitNotBankRow(base, bb, br)
	case Dim3:
		// Group of cell x: same (bank index, col), any (die, row).
		base := a
		var ok bool
		if base.Bank, ok = a.Bank.Intersect(b.Bank); !ok {
			return nil
		}
		if base.Col, ok = a.Col.Intersect(b.Col); !ok {
			return nil
		}
		units := b.Die.CountBelow(uint32(an.dieDomain)) * b.Row.CountBelow(an.rowsPerBank)
		if units != 1 {
			return []fault.Region{base}
		}
		bd := firstValue(b.Die, uint32(an.dieDomain))
		br := firstValue(b.Row, an.rowsPerBank)
		return an.splitNotDieRow(base, bd, br)
	default:
		return nil
	}
}

// splitNotUnit restricts base to cells with (die, bank) != (d0, b0),
// expressed as a union of mask-pattern pieces.
func (an *Analyzer) splitNotUnit(base fault.Region, d0, b0 uint32) []fault.Region {
	var out []fault.Region
	for _, dp := range notExact(d0, an.dieBits) {
		r := base
		if die, ok := base.Die.Intersect(dp); ok {
			r.Die = die
			out = append(out, r)
		}
	}
	for _, bp := range notExact(b0, an.bankBits) {
		r := base
		if die, ok := base.Die.Intersect(fault.ExactPattern(d0)); ok {
			if bank, ok2 := base.Bank.Intersect(bp); ok2 {
				r.Die, r.Bank = die, bank
				out = append(out, r)
			}
		}
	}
	return out
}

// splitNotBankRow restricts base to cells with (bank, row) != (b0, r0).
func (an *Analyzer) splitNotBankRow(base fault.Region, b0, r0 uint32) []fault.Region {
	var out []fault.Region
	for _, bp := range notExact(b0, an.bankBits) {
		r := base
		if bank, ok := base.Bank.Intersect(bp); ok {
			r.Bank = bank
			out = append(out, r)
		}
	}
	for _, rp := range notExact(r0, an.rowBits) {
		r := base
		if bank, ok := base.Bank.Intersect(fault.ExactPattern(b0)); ok {
			if row, ok2 := base.Row.Intersect(rp); ok2 {
				r.Bank, r.Row = bank, row
				out = append(out, r)
			}
		}
	}
	return out
}

// splitNotDieRow restricts base to cells with (die, row) != (d0, r0).
func (an *Analyzer) splitNotDieRow(base fault.Region, d0, r0 uint32) []fault.Region {
	var out []fault.Region
	for _, dp := range notExact(d0, an.dieBits) {
		r := base
		if die, ok := base.Die.Intersect(dp); ok {
			r.Die = die
			out = append(out, r)
		}
	}
	for _, rp := range notExact(r0, an.rowBits) {
		r := base
		if die, ok := base.Die.Intersect(fault.ExactPattern(d0)); ok {
			if row, ok2 := base.Row.Intersect(rp); ok2 {
				r.Die, r.Row = die, row
				out = append(out, r)
			}
		}
	}
	return out
}

// lost reports whether fault a has at least one lost cell given the live
// set: a cell whose reconstruction group in EVERY enabled dimension also
// contains another faulty cell. The computation is exact for product
// footprints: per dimension it gathers the union of cells of a blocked by
// each fault b (including a itself), then tests whether some combination of
// one piece per dimension intersects non-emptily.
func (an *Analyzer) lost(a fault.Region, live []fault.Region) bool {
	dims := an.dimList
	if len(dims) == 0 {
		return true
	}
	blocked := make([][]fault.Region, len(dims))
	for di, d := range dims {
		for _, b := range live {
			if b.Stack != a.Stack {
				continue
			}
			blocked[di] = append(blocked[di], an.blockedPieces(d, a, b)...)
		}
	}
	return an.anyCombinationNonEmpty(blocked)
}

// Uncorrectable reports whether the live fault set leads to data loss.
//
// Correction is modeled as iterative peeling, mirroring how 3DP isolates
// multi-granularity fault mixes (paper §VI-D): any fault whose every cell is
// recoverable through some dimension is reconstructed and removed from the
// set; the remaining faults are then re-evaluated against the shrunken set.
// Data is lost iff the peeling fixpoint leaves any fault behind. Peeling
// whole faults (rather than individual cells) is slightly conservative but
// sound: a reported "correctable" always has a valid reconstruction order.
func (an *Analyzer) Uncorrectable(regions []fault.Region) bool {
	if len(regions) == 0 {
		return false
	}
	live := append([]fault.Region(nil), regions...)
	for {
		progressed := false
		for i := 0; i < len(live); i++ {
			if !an.lost(live[i], live) {
				live = append(live[:i], live[i+1:]...)
				progressed = true
				i--
			}
		}
		if !progressed {
			return len(live) > 0
		}
		if len(live) == 0 {
			return false
		}
	}
}

// anyCombinationNonEmpty tests whether picking one region from each list
// yields a non-empty intersection.
func (an *Analyzer) anyCombinationNonEmpty(lists [][]fault.Region) bool {
	for _, l := range lists {
		if len(l) == 0 {
			return false
		}
	}
	var rec func(i int, acc fault.Region) bool
	rec = func(i int, acc fault.Region) bool {
		if i == len(lists) {
			return true
		}
		for _, piece := range lists[i] {
			if next, ok := intersectRegion(acc, piece); ok {
				if rec(i+1, next) {
					return true
				}
			}
		}
		return false
	}
	first := lists[0]
	for _, piece := range first {
		if rec(1, piece) {
			return true
		}
	}
	return false
}

// CellLost reports whether a specific cell would be lost under the live
// fault set — a direct (enumerative) oracle used by tests to validate the
// region algebra on small geometries.
func (an *Analyzer) CellLost(regions []fault.Region, stackIdx, die, bank, row, col int) bool {
	// The cell must be faulty.
	faulty := false
	for _, r := range regions {
		if r.ContainsCell(stackIdx, die, bank, row, col) {
			faulty = true
			break
		}
	}
	if !faulty {
		return false
	}
	covered := func(d Dim) bool {
		// Does any region contain another faulty cell in this cell's group?
		for _, r := range regions {
			if r.Stack != stackIdx {
				continue
			}
			switch d {
			case Dim1:
				if !r.Row.Contains(uint32(row)) || !r.Col.Contains(uint32(col)) {
					continue
				}
				for dd := 0; dd < an.dieDomain; dd++ {
					for bb := 0; bb < an.cfg.BanksPerDie; bb++ {
						if dd == die && bb == bank {
							continue
						}
						if r.ContainsCell(stackIdx, dd, bb, row, col) {
							return true
						}
					}
				}
			case Dim2:
				if !r.Die.Contains(uint32(die)) || !r.Col.Contains(uint32(col)) {
					continue
				}
				for bb := 0; bb < an.cfg.BanksPerDie; bb++ {
					for rr := 0; rr < an.cfg.RowsPerBank; rr++ {
						if bb == bank && rr == row {
							continue
						}
						if r.ContainsCell(stackIdx, die, bb, rr, col) {
							return true
						}
					}
				}
			case Dim3:
				if !r.Bank.Contains(uint32(bank)) || !r.Col.Contains(uint32(col)) {
					continue
				}
				for dd := 0; dd < an.dieDomain; dd++ {
					for rr := 0; rr < an.cfg.RowsPerBank; rr++ {
						if dd == die && rr == row {
							continue
						}
						if r.ContainsCell(stackIdx, dd, bank, rr, col) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	for _, d := range an.dims.List() {
		if !covered(d) {
			return false // recoverable through this dimension
		}
	}
	return true
}
