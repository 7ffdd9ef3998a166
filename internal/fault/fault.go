// Package fault defines the fault taxonomy, failure rates, and fault
// footprint algebra for stacked DRAM, following the field data of Sridharan
// & Liberty (SC 2012) scaled to 8 Gb dies exactly as Citadel's Table I does,
// plus the TSV fault modes the paper introduces for 3D stacks.
//
// A fault is a footprint — a set of affected (die, bank, row, bit-column)
// cells within one stack — paired with a granularity class, a persistence,
// and an arrival time. Protection schemes decide correctability by
// intersecting footprints, so the algebra (package-level Pattern/Region) is
// the contract between the fault model and every scheme.
package fault

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"repro/internal/stack"
)

// Class is the granularity class of a fault.
type Class int

const (
	// Bit is a single-bit fault.
	Bit Class = iota
	// Word is a fault confined to one aligned 64-bit word of a row.
	Word
	// Column is a column-decoder fault: one bit-column across every row of
	// one sub-array.
	Column
	// Row is a single full-row fault.
	Row
	// SubArray is a failure of one sub-array (a contiguous band of rows
	// across the full width of a bank). Together with Column faults it
	// produces the ~5200-row peak of the paper's Figure 17.
	SubArray
	// Bank is a complete single-bank failure.
	Bank
	// DataTSV is a faulty data TSV: a strided set of bit positions in every
	// line of every bank of the channel (die).
	DataTSV
	// AddrTSV is a faulty address TSV: half of the rows of every bank in
	// the channel become unreachable.
	AddrTSV
	numClasses
)

// String returns a short name for the class.
func (c Class) String() string {
	switch c {
	case Bit:
		return "bit"
	case Word:
		return "word"
	case Column:
		return "column"
	case Row:
		return "row"
	case SubArray:
		return "subarray"
	case Bank:
		return "bank"
	case DataTSV:
		return "data-tsv"
	case AddrTSV:
		return "addr-tsv"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsTSV reports whether the class is a TSV fault mode.
func (c Class) IsTSV() bool { return c == DataTSV || c == AddrTSV }

// LargeGranularity reports whether the class is in the large-granularity
// band (column and above, including TSV modes) — the multi-bit failure
// modes Citadel targets and the rare-event engine inflates.
func (c Class) LargeGranularity() bool { return c >= Column }

// Persistence distinguishes transient (scrubbed away once corrected) from
// permanent faults.
type Persistence int

const (
	// Transient faults disappear at the next scrub if correctable.
	Transient Persistence = iota
	// Permanent faults persist for the device lifetime unless spared.
	Permanent
)

// String returns "transient" or "permanent".
func (p Persistence) String() string {
	if p == Transient {
		return "transient"
	}
	return "permanent"
}

// Region is a fault footprint within one stack: the cartesian product of
// pattern sets over dies, banks, rows, and bit-columns within a row.
type Region struct {
	Stack int
	Die   Pattern
	Bank  Pattern
	Row   Pattern
	Col   Pattern // bit position within the row, [0, RowBytes*8)
}

// Overlaps reports whether two footprints share at least one cell.
func (r Region) Overlaps(s Region) bool {
	return r.Stack == s.Stack &&
		r.Die.Intersects(s.Die) &&
		r.Bank.Intersects(s.Bank) &&
		r.Row.Intersects(s.Row) &&
		r.Col.Intersects(s.Col)
}

// ContainsCell reports whether the footprint covers the given cell.
func (r Region) ContainsCell(stackIdx, die, bank, row, col int) bool {
	return r.Stack == stackIdx &&
		r.Die.Contains(uint32(die)) &&
		r.Bank.Contains(uint32(bank)) &&
		r.Row.Contains(uint32(row)) &&
		r.Col.Contains(uint32(col))
}

// Fault is one fault event.
type Fault struct {
	Class       Class
	Persistence Persistence
	Hours       float64 // arrival time since start of life
	Region      Region
	TSV         int // TSV index for DataTSV/AddrTSV faults
}

// String renders the fault for logs.
func (f Fault) String() string {
	return fmt.Sprintf("%s/%s@%.0fh stack=%d", f.Class, f.Persistence, f.Hours, f.Region.Stack)
}

// Rates holds failure rates in FIT (failures per 10^9 device-hours), one
// rate per (class, persistence) pair, expressed per die. TSV rates are per
// die (channel) and always permanent.
type Rates struct {
	BitTransient, BitPermanent       float64
	WordTransient, WordPermanent     float64
	ColumnTransient, ColumnPermanent float64
	RowTransient, RowPermanent       float64
	BankTransient, BankPermanent     float64
	// TSVPerDie is the total TSV FIT per die; events split between data and
	// address TSVs in proportion to their counts. The paper sweeps this from
	// 14 to 1430 FIT because field data is unavailable.
	TSVPerDie float64
	// SubArrayFraction is the portion of permanent bank-class events that
	// are sub-array failures rather than full-bank failures (drives the
	// 5200-row peak in Figure 17).
	SubArrayFraction float64
	// SubArrayRows is the number of rows in one sub-array.
	SubArrayRows int
}

// Sridharan1Gb returns the per-chip FIT rates for 1 Gb DRAM devices from
// the field study the paper builds on.
func Sridharan1Gb() Rates {
	return Rates{
		BitTransient: 14.2, BitPermanent: 18.6,
		WordTransient: 1.4, WordPermanent: 0.3,
		ColumnTransient: 1.4, ColumnPermanent: 5.6,
		RowTransient: 0.2, RowPermanent: 8.2,
		BankTransient: 0.8, BankPermanent: 10.0,
		SubArrayFraction: 0.21,
		SubArrayRows:     5200,
	}
}

// ScaleTo8Gb applies the paper's 1 Gb → 8 Gb scaling rules (§III-A): bit and
// word rates scale with capacity (8x), row rates with the number of rows
// (4x), column rates with column-decoder size (1.9x), and bank rates with
// the number of sub-arrays (8x).
func ScaleTo8Gb(r Rates) Rates {
	out := r
	out.BitTransient *= 8
	out.BitPermanent *= 8
	out.WordTransient *= 8
	out.WordPermanent *= 8
	out.ColumnTransient *= 1.9
	out.ColumnPermanent *= 1.9
	out.RowTransient *= 4
	out.RowPermanent *= 4
	out.BankTransient *= 8
	out.BankPermanent *= 8
	return out
}

// ScalePerDoubling extrapolates the paper's 1 Gb -> 8 Gb scaling rules
// (§III-A) to further density doublings: bit/word/bank rates scale with
// capacity (2x per doubling), row rates with the row count (4x per three
// doublings, i.e. 4^(1/3) each), and column rates with decoder size
// (1.9^(1/3) each). Used for the density-sensitivity ablation: the paper's
// motivation is that stacked DRAM will keep densifying.
func ScalePerDoubling(r Rates, doublings int) Rates {
	out := r
	capF := math.Pow(2, float64(doublings))
	rowF := math.Pow(4, float64(doublings)/3)
	colF := math.Pow(1.9, float64(doublings)/3)
	out.BitTransient *= capF
	out.BitPermanent *= capF
	out.WordTransient *= capF
	out.WordPermanent *= capF
	out.BankTransient *= capF
	out.BankPermanent *= capF
	out.RowTransient *= rowF
	out.RowPermanent *= rowF
	out.ColumnTransient *= colF
	out.ColumnPermanent *= colF
	return out
}

// Table1 returns the paper's Table I rates for 8 Gb dies with no TSV
// faults; set TSVPerDie for the sweep configurations.
func Table1() Rates {
	return Rates{
		BitTransient: 113.6, BitPermanent: 148.8,
		WordTransient: 11.2, WordPermanent: 2.4,
		ColumnTransient: 2.6, ColumnPermanent: 10.5,
		RowTransient: 0.8, RowPermanent: 32.8,
		BankTransient: 6.4, BankPermanent: 80,
		SubArrayFraction: 0.21,
		SubArrayRows:     5200,
	}
}

// WithTSV returns a copy of r with the given per-die TSV FIT rate.
func (r Rates) WithTSV(fit float64) Rates {
	r.TSVPerDie = fit
	return r
}

// BiasLarge returns a copy of r with every large-granularity rate —
// column, row, the bank/sub-array budget, and TSV — multiplied by
// factor. It is the proposal distribution of the importance-sampling
// engine (internal/rare): inflating a class's Poisson rate λ to Bλ
// leaves placement and arrival-time distributions untouched, so the
// per-trial likelihood ratio reduces to exp((B−1)Λ)·B^(−n) with Λ the
// total large-granularity event expectation (LargeLambda) and n the
// number of large-granularity events drawn.
func (r Rates) BiasLarge(factor float64) Rates {
	r.ColumnTransient *= factor
	r.ColumnPermanent *= factor
	r.RowTransient *= factor
	r.RowPermanent *= factor
	// SubArray and Bank classes both derive from the bank budget via
	// SubArrayFraction, so scaling the budget scales each class rate by
	// exactly factor.
	r.BankTransient *= factor
	r.BankPermanent *= factor
	r.TSVPerDie *= factor
	return r
}

// LargeLambda returns the expected number of large-granularity fault
// events over hours for the geometry — the Λ in the rare-event
// likelihood ratio. Class events scale with all fault-bearing dies
// (data + ECC); TSV events, as in Sampler, with data dies only.
func (r Rates) LargeLambda(cfg stack.Config, hours float64) float64 {
	nDies := float64(cfg.Stacks * (cfg.DataDies + cfg.ECCDies))
	var perDie float64
	for c := Column; c <= Bank; c++ {
		perDie += r.classRate(c, Transient) + r.classRate(c, Permanent)
	}
	lam := perDie * 1e-9 * hours * nDies
	lam += r.TSVPerDie * 1e-9 * hours * float64(cfg.Stacks*cfg.DataDies)
	return lam
}

// TotalPerDie returns the sum of all per-die FIT rates, including TSV.
func (r Rates) TotalPerDie() float64 {
	return r.BitTransient + r.BitPermanent +
		r.WordTransient + r.WordPermanent +
		r.ColumnTransient + r.ColumnPermanent +
		r.RowTransient + r.RowPermanent +
		r.BankTransient + r.BankPermanent +
		r.TSVPerDie
}

// HoursPerYear is the conversion used throughout (365.25-day years).
const HoursPerYear = 24 * 365.25

// LifetimeHours is the paper's seven-year evaluation lifetime.
const LifetimeHours = 7 * HoursPerYear

// classRate returns the FIT rate for a (class, persistence) pair. SubArray
// and Bank share the bank-class budget via SubArrayFraction.
func (r Rates) classRate(c Class, p Persistence) float64 {
	switch c {
	case Bit:
		if p == Transient {
			return r.BitTransient
		}
		return r.BitPermanent
	case Word:
		if p == Transient {
			return r.WordTransient
		}
		return r.WordPermanent
	case Column:
		if p == Transient {
			return r.ColumnTransient
		}
		return r.ColumnPermanent
	case Row:
		if p == Transient {
			return r.RowTransient
		}
		return r.RowPermanent
	case SubArray:
		if p == Transient {
			return r.BankTransient * r.SubArrayFraction
		}
		return r.BankPermanent * r.SubArrayFraction
	case Bank:
		if p == Transient {
			return r.BankTransient * (1 - r.SubArrayFraction)
		}
		return r.BankPermanent * (1 - r.SubArrayFraction)
	case DataTSV, AddrTSV:
		// Handled jointly: TSV events are always permanent and split by
		// TSV population; see Sampler.
		return 0
	default:
		return 0
	}
}

// Sampler draws fault lifetimes for a whole memory system. It is safe for
// concurrent use: goroutines may share one Sampler, each drawing from its
// own rng, and a shared Sampler draws exactly what separate ones would. A
// draw takes no lock. The Knuth thresholds exp(−λ) of the first draw's
// span are published once, as an immutable table, and a draw over another
// span computes its own on the stack. A draw compares each class's first
// uniform with exp(−λ) inline and continues Knuth's product only for a
// positive count; a class with λ > 0 still costs one Float64 when its
// count is zero. Every integer a draw needs comes from a per-range
// modulus built by NewSampler, which returns what math/rand's Intn would
// from the same Int63 values without dividing. So a seeded draw consumes
// the same randomness, and places the same faults, as plain math/rand
// calls would.
type Sampler struct {
	cfg   stack.Config
	rates Rates
	// dies counts fault-bearing dies per stack: data dies plus ECC dies
	// (the metadata die fails like any other die).
	diesPerStack int
	// draws[:nDraws] lists one window's Poisson draws in RNG order: every
	// (class, persistence) pair with a positive rate, then the TSV events.
	draws  [maxDraws]poissonDraw
	nDraws int
	// The ranges place draws from. subArrays is zero when
	// Rates.SubArrayRows does not split a bank, so that a sub-array fault
	// covers the whole bank.
	stacks, dies, banks, rows, rowBits, words, subArrays modulus
	tsvs, dataTSVs, addrTSVs, rowAddrBits, half          modulus

	// table holds the thresholds of the first draw's span: a lifetime run
	// asks for one span millions of times.
	table atomic.Pointer[thresholds]
}

// maxDraws bounds Sampler.nDraws: both persistences of every class
// through Bank, and the TSV events.
const maxDraws = 2*int(Bank+1) + 1

// thresholds holds the Knuth threshold of each of a Sampler's draws for a
// window of one span. A published table is never written again.
type thresholds struct {
	span  float64
	limit [maxDraws]float64
}

// poissonDraw is one Poisson-distributed event count of a window, with
// mean λ = perHour × span × dies, evaluated in that order.
type poissonDraw struct {
	class Class // DataTSV stands for the TSV events, split data/address
	pers  Persistence
	// perHour is the FIT rate times 1e-9: events per die-hour.
	perHour float64
	// dies is the number of dies the rate applies to: every fault-bearing
	// die for the classes, data dies only for TSV events.
	dies float64
}

// NewSampler builds a sampler for the given geometry and rates.
func NewSampler(cfg stack.Config, rates Rates) *Sampler {
	s := &Sampler{cfg: cfg, rates: rates, diesPerStack: cfg.DataDies + cfg.ECCDies}
	add := func(d poissonDraw) {
		s.draws[s.nDraws] = d
		s.nDraws++
	}
	nDies := float64(cfg.Stacks * s.diesPerStack)
	for c := Bit; c <= Bank; c++ {
		for _, p := range [...]Persistence{Transient, Permanent} {
			if rate := rates.classRate(c, p); rate > 0 {
				add(poissonDraw{class: c, pers: p, perHour: rate * 1e-9, dies: nDies})
			}
		}
	}
	// TSV events: permanent, split data/address by TSV population.
	if rates.TSVPerDie > 0 {
		add(poissonDraw{
			class: DataTSV, pers: Permanent,
			perHour: rates.TSVPerDie * 1e-9, dies: float64(cfg.Stacks * cfg.DataDies),
		})
	}
	rowBits := int(uint32(cfg.RowBytes * 8))
	s.stacks = newModulus(cfg.Stacks)
	s.dies = newModulus(s.diesPerStack)
	s.banks = newModulus(cfg.BanksPerDie)
	s.rows = newModulus(cfg.RowsPerBank)
	s.rowBits = newModulus(rowBits)
	s.words = newModulus(rowBits / 64)
	if n := rates.SubArrayRows; n > 0 && n < cfg.RowsPerBank {
		s.subArrays = newModulus(cfg.RowsPerBank / n)
	}
	s.tsvs = newModulus(cfg.DataTSVs + cfg.AddrTSVs)
	s.dataTSVs = newModulus(cfg.DataTSVs)
	s.addrTSVs = newModulus(cfg.AddrTSVs)
	s.rowAddrBits = newModulus(bitsFor(cfg.RowsPerBank))
	s.half = newModulus(2)
	return s
}

// Rates returns the sampler's rates.
func (s *Sampler) Rates() Rates { return s.rates }

// Config returns the sampler's geometry.
func (s *Sampler) Config() stack.Config { return s.cfg }

// publish computes the thresholds of span and publishes them as the
// sampler's table. Only a first draw publishes: goroutines that draw
// first at once may each publish, and every table they leave is valid for
// its own span. It is a function of its own so that the table
// AppendWindow fills on its stack for another span never escapes.
func (s *Sampler) publish(span float64) *thresholds {
	t := new(thresholds)
	s.fillLimits(t, span)
	s.table.Store(t)
	return t
}

// fillLimits sets t to the Knuth thresholds of s.draws for a window of
// the given span.
func (s *Sampler) fillLimits(t *thresholds, span float64) {
	t.span = span
	for i, d := range s.draws[:s.nDraws] {
		t.limit[i] = knuthLimit(d.perHour * span * d.dies)
	}
}

// CheckMeans reports an error when some Poisson draw over a window of
// span hours has a mean λ the sampler cannot count: the draw compares a
// product of uniforms with exp(−λ), which is subnormal past λ ≈ 708.4 and
// 0 past about 745, so the drawn count would stop growing with λ. The
// error names the fault class and its FIT rate per die.
func (s *Sampler) CheckMeans(span float64) error {
	for _, d := range s.draws[:s.nDraws] {
		lambda := d.perHour * span * d.dies
		if knuthLimit(lambda) >= 0x1p-1022 { // the smallest normal float64
			continue
		}
		name := d.pers.String() + " " + d.class.String()
		if d.class == DataTSV {
			name = "TSV"
		}
		return fmt.Errorf("fault: %s faults at %.4g FIT per die average %.4g per %.4g-hour lifetime, past the %.1f a Poisson draw can count",
			name, d.perHour*1e9, lambda, span, -math.Log(0x1p-1022))
	}
	return nil
}

// knuthLimit returns exp(−λ), the threshold of Knuth's method for a
// Poisson(λ) draw, or −1 when λ <= 0, for which AppendWindow draws
// nothing.
func knuthLimit(lambda float64) float64 {
	if lambda <= 0 {
		return -1
	}
	return math.Exp(-lambda)
}

// poissonFrom draws a Poisson variate by Knuth's method against limit,
// the knuthLimit of its mean (λ is small — well below 1 per class for
// realistic FIT rates), continuing the product from u, its first
// uniform: the count is the number of further uniforms it takes to bring
// the product to limit or below. Starting from u rather than from 1·u,
// which is u exactly, lets AppendWindow test u against limit inline.
func poissonFrom(rng *rand.Rand, u, limit float64) int {
	k := 0
	for p := u; p > limit; k++ {
		p *= rng.Float64()
	}
	return k
}

// SampleLifetime draws all fault events for the system over the given
// number of hours, sorted by arrival time.
func (s *Sampler) SampleLifetime(rng *rand.Rand, hours float64) []Fault {
	return s.AppendLifetime(rng, hours, nil)
}

// AppendLifetime is SampleLifetime appending into dst (typically a reused
// buffer truncated to length zero), so the Monte Carlo trial loop can run
// without a per-trial allocation. The sequence of RNG draws is identical to
// SampleLifetime's, so fixed-seed runs produce the same faults either way.
// The appended portion is sorted by arrival time.
func (s *Sampler) AppendLifetime(rng *rand.Rand, hours float64, dst []Fault) []Fault {
	return s.AppendWindow(rng, 0, hours, dst)
}

// AppendWindow draws all fault events arriving in the window
// (start, start+span] and appends them to dst, sorted by arrival time.
// Poisson arrivals are memoryless, so conditioning on any trajectory up
// to start, the suffix of the lifetime is distributed exactly as a fresh
// window draw — the branching step of multilevel splitting
// (internal/rare). With start zero it draws a whole lifetime, with a
// draw sequence identical to the pre-window AppendLifetime (0 + x is
// exact), keeping seeded runs and goldens unchanged.
func (s *Sampler) AppendWindow(rng *rand.Rand, start, span float64, dst []Fault) []Fault {
	base := len(dst)
	t := s.table.Load()
	switch {
	case t == nil:
		t = s.publish(span)
	case t.span != span:
		var local thresholds
		s.fillLimits(&local, span)
		t = &local
	}
	for i := range s.draws[:s.nDraws] {
		limit := t.limit[i]
		if limit < 0 {
			continue // λ <= 0: no draw
		}
		// Most windows draw no fault of a class: its first uniform is
		// already at or below exp(−λ).
		u := rng.Float64()
		if u <= limit {
			continue
		}
		d := &s.draws[i]
		for n := poissonFrom(rng, u, limit); n > 0; n-- {
			dst = append(dst, Fault{})
			f := &dst[len(dst)-1]
			switch {
			case d.class != DataTSV:
				s.place(rng, f, d.class, d.pers)
			case s.tsvs.intn(rng) < s.cfg.DataTSVs:
				s.place(rng, f, DataTSV, Permanent)
			default:
				s.place(rng, f, AddrTSV, Permanent)
			}
			f.Hours = start + rng.Float64()*span
		}
	}
	sortByTime(dst[base:])
	return dst
}

// place fills f, a zero Fault, with a fault of class c and persistence p
// at a uniformly random location. It writes in place: a Fault is 104
// bytes, and returning one by value costs a copy per event.
func (s *Sampler) place(rng *rand.Rand, f *Fault, c Class, p Persistence) {
	f.Class, f.Persistence = c, p
	reg := &f.Region
	reg.Stack = s.stacks.intn(rng)
	reg.Die = ExactPattern(uint32(s.dies.intn(rng))) // may land on the metadata die
	reg.Bank = ExactPattern(uint32(s.banks.intn(rng)))
	reg.Row = ExactPattern(uint32(s.rows.intn(rng)))
	switch c {
	case Bit:
		reg.Col = ExactPattern(uint32(s.rowBits.intn(rng)))
	case Word:
		start := uint32(s.words.intn(rng)) * 64
		reg.Col = MaskPattern(^uint32(63), start)
	case Column:
		// One bit-column across all rows of one sub-array.
		reg.Col = ExactPattern(uint32(s.rowBits.intn(rng)))
		reg.Row = s.subArrayRows(rng)
	case Row:
		// Footprint already a single full row.
	case SubArray:
		reg.Row = s.subArrayRows(rng)
	case Bank:
		reg.Row = AllPattern()
	case DataTSV:
		f.TSV = s.dataTSVs.intn(rng)
		reg.Bank = AllPattern()
		reg.Row = AllPattern()
		// Bits q of each line with q mod DataTSVs == t; since lines tile the
		// row and line bits are a multiple of DataTSVs, the row-level bit
		// position obeys the same congruence.
		reg.Col = MaskPattern(uint32(s.cfg.DataTSVs-1), uint32(f.TSV))
	case AddrTSV:
		f.TSV = s.addrTSVs.intn(rng)
		reg.Bank = AllPattern()
		// A broken row-address bit makes one half-space unreachable.
		k := uint(s.rowAddrBits.intn(rng))
		v := uint32(s.half.intn(rng)) << k
		reg.Row = MaskPattern(1<<k, v)
	}
}

// subArrayRows returns the row pattern of a random sub-array.
func (s *Sampler) subArrayRows(rng *rand.Rand) Pattern {
	if s.subArrays.n == 0 {
		return AllPattern()
	}
	n := uint32(s.rates.SubArrayRows)
	start := uint32(s.subArrays.intn(rng)) * n
	return RangePattern(start, start+n)
}

// bitsFor returns the number of address bits needed for n values.
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// sortByTime sorts faults by arrival hour (insertion sort; fault lists are
// short — a handful of events per lifetime). An element out of place is
// held aside while the ones before it that arrive later shift up one
// slot, so each Fault moves once rather than once per swap.
func sortByTime(fs []Fault) {
	for i := 1; i < len(fs); i++ {
		j := i
		for j > 0 && fs[i].Hours < fs[j-1].Hours {
			j--
		}
		if j == i {
			continue
		}
		f := fs[i]
		copy(fs[j+1:i+1], fs[j:i])
		fs[j] = f
	}
}

// RowsNeedingSparing returns how many rows of one bank the footprint
// covers, assuming the footprint touches that bank (Figure 17's metric).
func (f Fault) RowsNeedingSparing(cfg stack.Config) int {
	return f.Region.Row.CountBelow(uint32(cfg.RowsPerBank))
}
