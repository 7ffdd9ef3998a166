package scenario

import (
	"fmt"
	"math/bits"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

// cerberus-cross-layer models a Cerberus-style ECC co-design (Yağlıkçı):
// an on-die SEC code over small codewords inside each DRAM die, composed
// with a rank-level 8-bit symbol code striped across channels. The two
// layers interact through miscorrection: the on-die decoder silently
// absorbs a lone single-bit error, but when a second fault lands in the
// same on-die codeword the decoder sees a multi-bit syndrome and — in the
// worst case this predicate models deterministically — "corrects" the
// wrong bit, amplifying the damage to word-granularity corruption that
// the rank-level code must then catch.
//
// Cross-layer transform applied before rank-level evaluation:
//
//  1. A Bit-class fault whose on-die codeword contains no other live
//     fault is corrected on-die and dropped.
//  2. A Bit-class fault sharing an on-die codeword with any other fault
//     escalates to a Word-class footprint over that codeword window (the
//     worst-case miscorrection burst).
//  3. Larger-granularity faults pass through unchanged — the on-die
//     decoder miscorrects inside already-lost words, adding nothing.
//
// The transformed set feeds ecc.Symbol8 across channels, so failures are
// exactly the rank-level code's failures on post-miscorrection damage.

const (
	cerberusSchemeName   = "cerberus-cross-layer"
	defaultOndieWordBits = 128
)

func init() {
	RegisterScheme(Scheme{
		Name:        cerberusSchemeName,
		Description: "on-die SEC composed with a rank-level symbol code; multi-bit on-die codewords miscorrect into word bursts",
		Params: []ParamDoc{
			{Name: "ondieWordBits", Default: defaultOndieWordBits,
				Doc: "on-die SEC codeword width in bits (power of two dividing the row width)"},
		},
		Build: func(cfg stack.Config, p Params) (faultsim.Policy, error) {
			wb := int(p.Get("ondieWordBits", defaultOndieWordBits))
			rowBits := cfg.RowBytes * 8
			if wb <= 0 || bits.OnesCount(uint(wb)) != 1 || rowBits%wb != 0 {
				return faultsim.Policy{}, fmt.Errorf(
					"scenario: %s needs ondieWordBits to be a power of two dividing the %d-bit row, got %d",
					cerberusSchemeName, rowBits, wb)
			}
			return faultsim.Policy{
				Name: cerberusSchemeName,
				Predicate: &cerberusPredicate{
					inner:    ecc.NewSymbol8(cfg, stack.AcrossChannels),
					wordBits: uint32(wb),
					rowBits:  uint32(rowBits),
				},
			}, nil
		},
	})
}

// cerberusPredicate applies the on-die correction/miscorrection transform
// and evaluates the rank-level symbol code on the result. Predicates are
// shared across engine workers, so the batch Uncorrectable builds a fresh
// slice per call; the engine evaluates through Begin's per-worker state,
// which reuses its buffers.
type cerberusPredicate struct {
	inner    *ecc.Symbol8
	wordBits uint32
	rowBits  uint32
}

func (c *cerberusPredicate) Name() string { return cerberusSchemeName }

func (c *cerberusPredicate) Uncorrectable(live []fault.Fault) bool {
	out := c.transform(live, make([]fault.Fault, 0, len(live)))
	if len(out) == 0 {
		return false
	}
	return c.inner.Uncorrectable(out)
}

// Begin implements ecc.IncrementalPredicate with a state that allocates
// nothing once its buffers have grown.
func (c *cerberusPredicate) Begin() ecc.IncrementalState {
	return &cerberusState{c: c, inner: c.inner.Begin()}
}

// transform appends to dst the rank-level damage of the live set after
// the on-die decoder: lone bit faults dropped, bit faults that share a
// codeword escalated to Word-class damage over it, every other fault
// unchanged.
func (c *cerberusPredicate) transform(live, dst []fault.Fault) []fault.Fault {
	for i := range live {
		f := &live[i]
		if f.Class != fault.Bit {
			dst = append(dst, *f)
			continue
		}
		start, ok := c.codewordStart(f.Region.Col)
		if !ok {
			dst = append(dst, *f) // unlocatable bit column; be conservative
			continue
		}
		if !c.sharesCodeword(live, i, start) {
			continue // lone bit error: absorbed by the on-die SEC
		}
		// Worst-case miscorrection: the decoder corrupts its whole
		// codeword. Escalate to Word-class damage over the window.
		dst = append(dst, *f)
		g := &dst[len(dst)-1]
		g.Class = fault.Word
		g.Region.Col = fault.MaskPattern(^(c.wordBits - 1), start)
	}
	return dst
}

// cerberusState is the per-worker incremental state. A change to one bit
// fault can absorb or escalate another, so after each change it
// transforms the whole live multiset again and replays the result into
// the symbol code's own incremental state, which then holds exactly the
// batch verdict on the transformed set.
type cerberusState struct {
	c     *cerberusPredicate
	live  []fault.Fault
	out   []fault.Fault
	inner ecc.IncrementalState
}

func (s *cerberusState) Add(f fault.Fault) bool {
	s.live = append(s.live, f)
	return s.eval()
}

// Remove deletes one fault equal to f, keeping the others in order, and
// ignores an absent one.
func (s *cerberusState) Remove(f fault.Fault) bool {
	for i := range s.live {
		if s.live[i] == f {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return s.eval()
		}
	}
	return s.inner.Uncorrectable()
}

func (s *cerberusState) Reset() {
	s.live = s.live[:0]
	s.inner.Reset()
}

func (s *cerberusState) Uncorrectable() bool { return s.inner.Uncorrectable() }

// eval replays the transformed live set into the inner state.
func (s *cerberusState) eval() bool {
	s.out = s.c.transform(s.live, s.out[:0])
	s.inner.Reset()
	for i := range s.out {
		s.inner.Add(s.out[i])
	}
	return s.inner.Uncorrectable()
}

// codewordStart returns the aligned start column of the on-die codeword
// holding the (exact) bit column described by col.
func (c *cerberusPredicate) codewordStart(col fault.Pattern) (uint32, bool) {
	v, ok := col.First(c.rowBits)
	if !ok {
		return 0, false
	}
	return v &^ (c.wordBits - 1), true
}

// sharesCodeword reports whether any other live fault's footprint
// intersects the on-die codeword window of live[i].
func (c *cerberusPredicate) sharesCodeword(live []fault.Fault, i int, start uint32) bool {
	f := &live[i].Region
	window := fault.MaskPattern(^(c.wordBits - 1), start)
	for j := range live {
		if j == i {
			continue
		}
		g := &live[j].Region
		if g.Stack != f.Stack {
			continue
		}
		if g.Die.Intersects(f.Die) && g.Bank.Intersects(f.Bank) &&
			g.Row.Intersects(f.Row) && g.Col.Intersects(window) {
			return true
		}
	}
	return false
}
