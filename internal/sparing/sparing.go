// Package sparing implements Citadel's Dynamic Dual-granularity Sparing
// (DDS, paper §VII). Permanent faults, once corrected by 3DP, are redirected
// to spare storage in the metadata die so the slow parity-correction path is
// not exercised again and faults do not accumulate.
//
// DDS exploits the bimodal size distribution of permanent faults: a faulty
// bank has either a handful of faulty rows or thousands. It spares at two
// granularities:
//
//   - Row sparing via the Row Remap Table (RRT): up to MaxSpareRowsPerBank
//     (4) faulty rows per bank are remapped into the fine-grained spare bank.
//   - Bank sparing via the Bank Remap Table (BRT): a bank whose faults
//     exceed the row budget is wholly remapped to one of SpareBanks (2)
//     coarse-grained spare banks.
//
// The spare area occupies three of the metadata die's banks (two coarse,
// one fine), per stack.
package sparing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/stack"
)

// Defaults from the paper's design.
const (
	// MaxSpareRowsPerBank is the RRT budget per bank (paper: 4 entries).
	MaxSpareRowsPerBank = 4
	// SpareBanks is the number of coarse-grained spare banks per stack.
	SpareBanks = 2
)

// bankKey identifies a bank system-wide.
type bankKey struct {
	Stack, Die, Bank int
}

// DDS tracks sparing state for the whole system.
type DDS struct {
	cfg stack.Config

	maxRows    int
	spareBanks int

	// rrtRows counts RRT entries consumed per bank, indexed by dense bank
	// id (see bankID), metadata die included. rrtTouched lists, once each,
	// the ids with a nonzero count so Reset clears only what a trial used.
	rrtRows    []int
	rrtTouched []int
	// brt lists banks remapped to spare banks, indexed by stack.
	brt [][]bankKey
	// sparedScratch backs Offer's sparedLive result so bank escalation does
	// not allocate on the simulator's hot path.
	sparedScratch []int

	// Rejection tallies for failure forensics: how many Offer calls were
	// refused because the footprint spans multiple banks, and how many
	// because the stack's spare banks were exhausted. Plain ints — the
	// counters ride the zero-allocation trial loop.
	rejectFootprint int
	rejectBudget    int
}

// New builds DDS state with the paper's default budgets.
func New(cfg stack.Config) *DDS {
	return NewWithBudget(cfg, MaxSpareRowsPerBank, SpareBanks)
}

// NewWithBudget builds DDS state with explicit budgets (for ablations).
func NewWithBudget(cfg stack.Config, maxRowsPerBank, spareBanks int) *DDS {
	return &DDS{
		cfg:        cfg,
		maxRows:    maxRowsPerBank,
		spareBanks: spareBanks,
		rrtRows:    make([]int, cfg.Stacks*(cfg.DataDies+cfg.ECCDies)*cfg.BanksPerDie),
		brt:        make([][]bankKey, cfg.Stacks),
	}
}

// Reset clears all sparing state, retaining table capacity so the Monte
// Carlo engine can reuse a DDS across trials. It costs the banks and
// stacks the trial used, not the whole system.
func (d *DDS) Reset() {
	for _, id := range d.rrtTouched {
		d.rrtRows[id] = 0
	}
	d.rrtTouched = d.rrtTouched[:0]
	for i := range d.brt {
		d.brt[i] = d.brt[i][:0]
	}
	d.rejectFootprint = 0
	d.rejectBudget = 0
}

// RejectCounts returns how many Offer calls were rejected since the last
// Reset, split into unsparable multi-bank footprints and spare-bank budget
// exhaustion. A fault that stays live is re-offered at every subsequent
// scrub, so these count rejection events, not distinct faults.
func (d *DDS) RejectCounts() (footprint, budget int) {
	return d.rejectFootprint, d.rejectBudget
}

// bankID returns the dense index of a bank, or -1 outside the geometry.
func (d *DDS) bankID(stackIdx, die, bank int) int {
	dies := d.cfg.DataDies + d.cfg.ECCDies
	if stackIdx < 0 || stackIdx >= d.cfg.Stacks || die < 0 || die >= dies || bank < 0 || bank >= d.cfg.BanksPerDie {
		return -1
	}
	return (stackIdx*dies+die)*d.cfg.BanksPerDie + bank
}

// RowEntriesUsed returns the number of RRT entries consumed for the bank.
func (d *DDS) RowEntriesUsed(stackIdx, die, bank int) int {
	if id := d.bankID(stackIdx, die, bank); id >= 0 {
		return d.rrtRows[id]
	}
	return 0
}

// BankSparesUsed returns the number of BRT entries consumed in the stack.
func (d *DDS) BankSparesUsed(stackIdx int) int {
	if stackIdx < 0 || stackIdx >= len(d.brt) {
		return 0
	}
	return len(d.brt[stackIdx])
}

// BankSpared reports whether the given bank has been remapped.
func (d *DDS) BankSpared(stackIdx, die, bank int) bool {
	if stackIdx < 0 || stackIdx >= len(d.brt) {
		return false
	}
	for _, k := range d.brt[stackIdx] {
		if k == (bankKey{stackIdx, die, bank}) {
			return true
		}
	}
	return false
}

// singleBank extracts the (die, bank) a footprint is confined to, if any.
// A footprint on a stack outside the geometry is confined to no bank.
func (d *DDS) singleBank(r *fault.Region) (die, bank int, ok bool) {
	dies := uint32(d.cfg.DataDies + d.cfg.ECCDies)
	banks := uint32(d.cfg.BanksPerDie)
	if r.Stack < 0 || r.Stack >= d.cfg.Stacks ||
		r.Die.CountBelow(dies) != 1 || r.Bank.CountBelow(banks) != 1 {
		return 0, 0, false
	}
	// Each pattern has exactly one member in its domain, so First finds it.
	dv, _ := r.Die.First(dies)
	bv, _ := r.Bank.First(banks)
	return int(dv), int(bv), true
}

// Offer gives DDS a corrected permanent fault (at a scrub boundary). It
// returns whether f itself is now spared, plus the indices into live of
// other faults that became spared as a side effect (when row-budget
// exhaustion escalates the whole bank to a spare bank, every resident fault
// of that bank moves with it).
//
// Faults spanning multiple banks (unrepaired TSV remnants) cannot be spared
// by DDS and are rejected.
//
// The returned sparedLive slice is backed by internal scratch and only
// valid until the next Offer call; callers must consume it immediately.
func (d *DDS) Offer(f fault.Fault, live []fault.Fault) (sparedSelf bool, sparedLive []int) {
	die, bank, ok := d.singleBank(&f.Region)
	if !ok {
		d.rejectFootprint++
		return false, nil
	}
	key := bankKey{f.Region.Stack, die, bank}
	if d.BankSpared(key.Stack, key.Die, key.Bank) {
		// Bank already redirected; the faulty cells are no longer in use.
		return true, nil
	}
	id := d.bankID(key.Stack, key.Die, key.Bank)
	rows := f.RowsNeedingSparing(d.cfg)
	if rows <= d.maxRows-d.rrtRows[id] {
		if rows > 0 && d.rrtRows[id] == 0 {
			d.rrtTouched = append(d.rrtTouched, id)
		}
		d.rrtRows[id] += rows
		return true, nil
	}
	// Row budget exceeded: escalate to bank sparing.
	if len(d.brt[key.Stack]) >= d.spareBanks {
		d.rejectBudget++
		return false, nil
	}
	d.brt[key.Stack] = append(d.brt[key.Stack], key)
	// Every live fault confined to this bank rides along.
	sparedLive = d.sparedScratch[:0]
	for i := range live {
		g := &live[i].Region
		if g.Stack != key.Stack {
			continue
		}
		gd, gb, ok := d.singleBank(g)
		if ok && gd == key.Die && gb == key.Bank {
			sparedLive = append(sparedLive, i)
		}
	}
	d.sparedScratch = sparedLive
	if len(sparedLive) == 0 {
		return true, nil
	}
	return true, sparedLive
}

// String summarizes sparing state.
func (d *DDS) String() string {
	used := 0
	for _, id := range d.rrtTouched {
		used += d.rrtRows[id]
	}
	banks := 0
	for _, b := range d.brt {
		banks += len(b)
	}
	return fmt.Sprintf("DDS{spareRows:%d spareBanks:%d}", used, banks)
}

// OverheadBits returns the on-chip SRAM cost of the redirection tables in
// bits (paper §VII-C): per-bank RRT entries of (valid + source row + dest
// row) plus per-stack BRT entries of (valid + failed bank ID + spare ID).
func OverheadBits(cfg stack.Config) int {
	rowIDBits := log2ceil(cfg.RowsPerBank)
	banks := cfg.Stacks * (cfg.DataDies + cfg.ECCDies) * cfg.BanksPerDie
	rrt := banks * MaxSpareRowsPerBank * (1 + 2*rowIDBits)
	bankIDBits := log2ceil((cfg.DataDies + cfg.ECCDies) * cfg.BanksPerDie)
	brt := cfg.Stacks * SpareBanks * (1 + bankIDBits + 1)
	return rrt + brt
}

func log2ceil(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}
