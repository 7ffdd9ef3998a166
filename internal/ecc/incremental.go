package ecc

import (
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Incremental correctability evaluation. The Monte Carlo engine's trial
// loop evaluates the live fault set after every arrival; the batch
// Predicate.Uncorrectable re-derives the verdict from scratch each time,
// which is quadratic per trial in the number of faults (and worse for the
// parity schemes). IncrementalPredicate lets a predicate maintain the
// verdict under single-fault additions and removals instead, and Begin
// gives every predicate a state, so the engine has one evaluation path.
//
// Begin allocates once per worker; the Add/Remove/Reset steady state of
// the stock incremental states is allocation-free once scratch buffers
// are warm. The batch Uncorrectable implementations are deliberately left
// untouched: they are the oracle the differential tests replay against
// (see incremental_test.go), reached by hiding a predicate's own Begin.

// IncrementalState maintains the verdict for a multiset of live faults
// under incremental updates. Implementations must give, at every step,
// exactly the verdict the predicate's batch Uncorrectable would give on the
// same multiset.
type IncrementalState interface {
	// Add inserts the fault and returns the updated verdict.
	Add(f fault.Fault) bool
	// Remove deletes one fault equal to f (no-op if absent) and returns
	// the updated verdict.
	Remove(f fault.Fault) bool
	// Reset empties the state, retaining capacity.
	Reset()
	// Uncorrectable reports the current verdict.
	Uncorrectable() bool
}

// IncrementalPredicate is implemented by predicates that maintain their
// verdict incrementally. Begin type-asserts for it.
type IncrementalPredicate interface {
	Predicate
	// Begin returns a fresh empty state. States are not safe for
	// concurrent use; the engine creates one per worker.
	Begin() IncrementalState
}

// Begin returns a fresh empty state for p: p's own when p implements
// IncrementalPredicate, otherwise one that keeps the live multiset and
// asks p.Uncorrectable after every change. Like p's own, the state is not
// safe for concurrent use.
func Begin(p Predicate) IncrementalState {
	if ip, ok := p.(IncrementalPredicate); ok {
		return ip.Begin()
	}
	return &batchState{p: p}
}

// batchState is Begin's state for a predicate that evaluates only whole
// live sets. It hands p its own live slice, which p must not retain (the
// Predicate contract).
type batchState struct {
	p    Predicate
	live []fault.Fault
	bad  bool
}

func (s *batchState) Add(f fault.Fault) bool {
	s.live = append(s.live, f)
	s.bad = s.p.Uncorrectable(s.live)
	return s.bad
}

func (s *batchState) Remove(f fault.Fault) bool {
	for i := range s.live {
		if s.live[i] == f {
			s.live = append(s.live[:i], s.live[i+1:]...)
			s.bad = s.p.Uncorrectable(s.live)
			break
		}
	}
	return s.bad
}

func (s *batchState) Reset() {
	s.live = s.live[:0]
	s.bad = false
}

func (s *batchState) Uncorrectable() bool { return s.bad }

// pairCounter incrementalizes the common batch shape "uncorrectable iff
// some fault alone violates the code OR some pair of faults violates it":
// it counts the violating singles and pairs. Both rules are pure functions
// of the faults involved and the pair rule is symmetric, so the counts are
// order-independent and removal can subtract exactly what addition added —
// the verdict (count > 0) always matches the batch all-pairs scan.
//
// assess computes a per-fault annotation (cached so the pair rule never
// recomputes it) plus the single-fault verdict; pair is the symmetric
// two-fault rule.
type pairCounter[A any] struct {
	assess func(f fault.Fault) (A, bool)
	pair   func(fa fault.Fault, aa A, fb fault.Fault, ab A) bool

	faults  []fault.Fault
	anns    []A
	single  []bool
	nSingle int
	nPair   int
}

func (pc *pairCounter[A]) Uncorrectable() bool { return pc.nSingle > 0 || pc.nPair > 0 }

func (pc *pairCounter[A]) Reset() {
	pc.faults = pc.faults[:0]
	pc.anns = pc.anns[:0]
	pc.single = pc.single[:0]
	pc.nSingle = 0
	pc.nPair = 0
}

func (pc *pairCounter[A]) Add(f fault.Fault) bool {
	ann, bad := pc.assess(f)
	for j := range pc.faults {
		if pc.pair(pc.faults[j], pc.anns[j], f, ann) {
			pc.nPair++
		}
	}
	pc.faults = append(pc.faults, f)
	pc.anns = append(pc.anns, ann)
	pc.single = append(pc.single, bad)
	if bad {
		pc.nSingle++
	}
	return pc.Uncorrectable()
}

func (pc *pairCounter[A]) Remove(f fault.Fault) bool {
	for i := range pc.faults {
		if pc.faults[i] != f {
			continue
		}
		for j := range pc.faults {
			if j != i && pc.pair(pc.faults[j], pc.anns[j], pc.faults[i], pc.anns[i]) {
				pc.nPair--
			}
		}
		if pc.single[i] {
			pc.nSingle--
		}
		last := len(pc.faults) - 1
		pc.faults[i] = pc.faults[last]
		pc.anns[i] = pc.anns[last]
		pc.single[i] = pc.single[last]
		pc.faults = pc.faults[:last]
		pc.anns = pc.anns[:last]
		pc.single = pc.single[:last]
		break
	}
	return pc.Uncorrectable()
}

// Begin implements IncrementalPredicate. The single rule mirrors the
// striping switch at the top of Symbol8.Uncorrectable; the pair rule is
// pairFails plus the optional device-granular bookkeeping.
func (s *Symbol8) Begin() IncrementalState {
	return &pairCounter[damage]{
		assess: func(f fault.Fault) (damage, bool) {
			d := s.assess(f)
			switch s.striping {
			case stack.SameBank:
				return d, !d.meta && d.symbols > s.SymbolBudget
			default:
				return d, d.units >= 2 && d.symbols > s.SymbolBudget
			}
		},
		pair: func(fa fault.Fault, da damage, fb fault.Fault, db damage) bool {
			if s.pairFails(fa, da, fb, db) {
				return true
			}
			return s.DeviceGranular && s.striping != stack.SameBank &&
				s.deviceGranularPairFails(fa, fb)
		},
	}
}

// Begin implements IncrementalPredicate.
func (b *BCH6EC7ED) Begin() IncrementalState {
	return &pairCounter[int]{
		assess: func(f fault.Fault) (int, bool) {
			bits := b.bitsPerLine(f)
			return bits, bits > b.BitBudget
		},
		pair: func(fa fault.Fault, ba int, fb fault.Fault, bb int) bool {
			return ba+bb > b.BitBudget && b.pairColocated(fa, fb)
		},
	}
}

// pairColocated is the colocation test from the batch BCH pair loop,
// factored for the incremental path.
func (b *BCH6EC7ED) pairColocated(fa, fb fault.Fault) bool {
	ai, aj := fa.Region, fb.Region
	if ai.Stack != aj.Stack {
		return false
	}
	if fa.Class == fault.DataTSV || fb.Class == fault.DataTSV {
		return ai.Die.Intersects(aj.Die)
	}
	lineB := b.cfg.LineBytes * 8
	return ai.Die.Intersects(aj.Die) && ai.Bank.Intersects(aj.Bank) &&
		ai.Row.Intersects(aj.Row) &&
		windowsIntersect(ai.Col, aj.Col, lineB, b.cfg.RowBytes*8)
}

// Begin implements IncrementalPredicate.
func (e *TwoDECC) Begin() IncrementalState {
	return &pairCounter[struct{}]{
		assess: func(f fault.Fault) (struct{}, bool) {
			return struct{}{}, e.singleFaultFatal(f)
		},
		pair: func(fa fault.Fault, _ struct{}, fb fault.Fault, _ struct{}) bool {
			return e.pairHitsSameTile(fa, fb)
		},
	}
}

// pairHitsSameTile is the tile-colocation test from the batch TwoDECC pair
// loop, factored for the incremental path.
func (e *TwoDECC) pairHitsSameTile(a, b fault.Fault) bool {
	if a.Region.Stack != b.Region.Stack {
		return false
	}
	if !a.Region.Die.Intersects(b.Region.Die) || !a.Region.Bank.Intersects(b.Region.Bank) {
		return false
	}
	sameRowBand := false
	for lo := 0; lo < e.cfg.RowsPerBank; lo += e.BlockDim {
		band := fault.RangePattern(uint32(lo), uint32(lo+e.BlockDim))
		if a.Region.Row.Intersects(band) && b.Region.Row.Intersects(band) {
			sameRowBand = true
			break
		}
	}
	if !sameRowBand {
		return false
	}
	return windowsIntersect(a.Region.Col, b.Region.Col, e.BlockDim, e.cfg.RowBytes*8)
}

// parityState adapts parity.State (which tracks regions) to fault-level
// IncrementalState.
type parityState struct{ st *parity.State }

// Begin implements IncrementalPredicate.
func (p *ParityPredicate) Begin() IncrementalState {
	return &parityState{st: p.an.NewState()}
}

func (s *parityState) Add(f fault.Fault) bool    { return s.st.Add(f.Region) }
func (s *parityState) Remove(f fault.Fault) bool { return s.st.Remove(f.Region) }
func (s *parityState) Reset()                    { s.st.Reset() }
func (s *parityState) Uncorrectable() bool       { return s.st.Uncorrectable() }

// Begin implements IncrementalPredicate by delegating to the inner
// Across-Channels symbol code.
func (r *RAID5) Begin() IncrementalState { return r.inner.Begin() }

// Begin implements IncrementalPredicate: every fault is a single-fault
// violation and no pair rule is needed, so the pairCounter's multiset
// bookkeeping gives "uncorrectable iff any fault is live".
func (NoProtection) Begin() IncrementalState {
	return &pairCounter[struct{}]{
		assess: func(fault.Fault) (struct{}, bool) { return struct{}{}, true },
		pair:   func(fault.Fault, struct{}, fault.Fault, struct{}) bool { return false },
	}
}
