package sparing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// refDDS is a map-based model of DDS: RRT counts keyed by bank and BRT
// lists keyed by stack, kept as the reference the dense tables must match
// step for step.
type refDDS struct {
	cfg                stack.Config
	maxRows, spareBank int
	rrtRows            map[bankKey]int
	brt                map[int][]bankKey
	rejFoot, rejBudget int
}

func newRefDDS(cfg stack.Config, maxRows, spareBanks int) *refDDS {
	return &refDDS{cfg: cfg, maxRows: maxRows, spareBank: spareBanks,
		rrtRows: map[bankKey]int{}, brt: map[int][]bankKey{}}
}

func (d *refDDS) String() string {
	rows, banks := 0, 0
	for _, n := range d.rrtRows {
		rows += n
	}
	for _, b := range d.brt {
		banks += len(b)
	}
	return fmt.Sprintf("DDS{spareRows:%d spareBanks:%d}", rows, banks)
}

func (d *refDDS) spared(k bankKey) bool {
	return slices.Contains(d.brt[k.Stack], k)
}

// bankOf is the footprint test of DDS.singleBank, with the stack checked
// against the geometry.
func (d *refDDS) bankOf(r fault.Region) (bankKey, bool) {
	dies := d.cfg.DataDies + d.cfg.ECCDies
	if r.Stack < 0 || r.Stack >= d.cfg.Stacks {
		return bankKey{}, false
	}
	var ks []bankKey
	for die := 0; die < dies; die++ {
		for bank := 0; bank < d.cfg.BanksPerDie; bank++ {
			if r.Die.Contains(uint32(die)) && r.Bank.Contains(uint32(bank)) {
				ks = append(ks, bankKey{r.Stack, die, bank})
			}
		}
	}
	if len(ks) != 1 {
		return bankKey{}, false
	}
	return ks[0], true
}

func (d *refDDS) offer(f fault.Fault, live []fault.Fault) (bool, []int) {
	key, ok := d.bankOf(f.Region)
	if !ok {
		d.rejFoot++
		return false, nil
	}
	if d.spared(key) {
		return true, nil
	}
	rows := f.RowsNeedingSparing(d.cfg)
	if rows <= d.maxRows-d.rrtRows[key] {
		d.rrtRows[key] += rows
		return true, nil
	}
	if len(d.brt[key.Stack]) >= d.spareBank {
		d.rejBudget++
		return false, nil
	}
	d.brt[key.Stack] = append(d.brt[key.Stack], key)
	var moved []int
	for i, g := range live {
		if k, ok := d.bankOf(g.Region); ok && k == key {
			moved = append(moved, i)
		}
	}
	return true, moved
}

// randomPermanent draws a permanent fault footprint of the kinds DDS is
// offered: single rows, small row ranges around the RRT budget, sub-arrays
// and whole banks in one bank, plus multi-bank and multi-die footprints
// (unrepaired TSV remnants) it must reject. Banks come from a small set so
// budgets run out.
func randomPermanent(rng *rand.Rand, cfg stack.Config) fault.Fault {
	dies := cfg.DataDies + cfg.ECCDies
	r := fault.Region{
		Stack: rng.Intn(cfg.Stacks),
		Die:   fault.ExactPattern(uint32([]int{0, dies - 1, rng.Intn(dies)}[rng.Intn(3)])),
		Bank:  fault.ExactPattern(uint32(rng.Intn(min(3, cfg.BanksPerDie)))),
		Col:   fault.AllPattern(),
	}
	start := uint32(rng.Intn(cfg.RowsPerBank - 8))
	switch rng.Intn(6) {
	case 0, 1:
		r.Row = fault.ExactPattern(start)
	case 2:
		r.Row = fault.RangePattern(start, start+uint32(1+rng.Intn(6)))
	case 3:
		r.Row = fault.RangePattern(0, uint32(cfg.RowsPerBank/8))
	case 4:
		r.Row = fault.AllPattern()
	case 5:
		r.Row = fault.AllPattern()
		if rng.Intn(2) == 0 {
			r.Bank = fault.AllPattern()
		} else {
			r.Die = fault.AllPattern()
		}
	}
	return fault.Fault{Class: fault.Row, Persistence: fault.Permanent, Region: r}
}

func TestDDSMatchesMapReference(t *testing.T) {
	for _, org := range stack.Organizations() {
		for _, budget := range [][2]int{{4, 2}, {0, 0}, {1, 1}, {6, 3}} {
			t.Run(fmt.Sprintf("%s/rows%d-banks%d", org.Name, budget[0], budget[1]), func(t *testing.T) {
				cfg := org.Config
				rng := rand.New(rand.NewSource(int64(budget[0]*10 + budget[1])))
				d := NewWithBudget(cfg, budget[0], budget[1])
				dies := cfg.DataDies + cfg.ECCDies
				for trial := 0; trial < 200; trial++ {
					d.Reset()
					ref := newRefDDS(cfg, budget[0], budget[1])
					live := make([]fault.Fault, 1+rng.Intn(12))
					for i := range live {
						live[i] = randomPermanent(rng, cfg)
					}
					for i, f := range live {
						// Mostly f is live itself, as at a scrub; sometimes
						// it is offered before joining the list.
						seen := live[:i+1]
						if rng.Intn(4) == 0 {
							seen = live[:i]
						}
						gs, gl := d.Offer(f, seen)
						ws, wl := ref.offer(f, seen)
						if gs != ws || !slices.Equal(gl, wl) {
							t.Fatalf("trial %d offer %d: (%v, %v), reference (%v, %v)", trial, i, gs, gl, ws, wl)
						}
					}
					for s := 0; s < cfg.Stacks; s++ {
						if got, want := d.BankSparesUsed(s), len(ref.brt[s]); got != want {
							t.Fatalf("trial %d: BankSparesUsed(%d) = %d, reference %d", trial, s, got, want)
						}
						for die := 0; die < dies; die++ {
							for bank := 0; bank < cfg.BanksPerDie; bank++ {
								k := bankKey{s, die, bank}
								if got, want := d.RowEntriesUsed(s, die, bank), ref.rrtRows[k]; got != want {
									t.Fatalf("trial %d: RowEntriesUsed%v = %d, reference %d", trial, k, got, want)
								}
								if got, want := d.BankSpared(s, die, bank), ref.spared(k); got != want {
									t.Fatalf("trial %d: BankSpared%v = %v, reference %v", trial, k, got, want)
								}
							}
						}
					}
					if got, want := d.String(), ref.String(); got != want {
						t.Fatalf("trial %d: String = %s, reference %s", trial, got, want)
					}
					if foot, bud := d.RejectCounts(); foot != ref.rejFoot || bud != ref.rejBudget {
						t.Fatalf("trial %d: RejectCounts = (%d, %d), reference (%d, %d)", trial, foot, bud, ref.rejFoot, ref.rejBudget)
					}
				}
			})
		}
	}
}

// TestDDSOutsideGeometry pins the answer for a footprint on a stack the
// configuration does not have: an unsparable footprint, rejected and
// counted as such, with every query about it answering zero.
func TestDDSOutsideGeometry(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	for _, s := range []int{-1, cfg.Stacks} {
		if ok, extra := d.Offer(bankFault(s, 0, 0), nil); ok || extra != nil {
			t.Errorf("stack %d: Offer = (%v, %v), want (false, nil)", s, ok, extra)
		}
		if d.RowEntriesUsed(s, 0, 0) != 0 || d.BankSparesUsed(s) != 0 || d.BankSpared(s, 0, 0) {
			t.Errorf("stack %d: queries report sparing state", s)
		}
	}
	if foot, budget := d.RejectCounts(); foot != 2 || budget != 0 {
		t.Errorf("RejectCounts = (%d, %d), want (2, 0)", foot, budget)
	}
	if d.RowEntriesUsed(0, cfg.DataDies+cfg.ECCDies, 0) != 0 || d.RowEntriesUsed(0, 0, cfg.BanksPerDie) != 0 {
		t.Error("RowEntriesUsed answers for a die or bank outside the geometry")
	}
}

func TestOfferResetDoNotAllocate(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	// Row sparing on two banks, an escalation that moves a co-resident
	// fault, a spare-bank exhaustion and a multi-bank rejection.
	live := []fault.Fault{rowFault(0, 1, 2, 7), rowFault(1, 0, 0, 1)}
	for i := 0; i < 4; i++ {
		live = append(live, rowFault(0, 1, 2, 100+i))
	}
	live = append(live, bankFault(0, 1, 2), bankFault(0, 3, 3), bankFault(0, 4, 4))
	multi := bankFault(0, 5, 0)
	multi.Region.Bank = fault.AllPattern()
	live = append(live, multi)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range live {
			d.Offer(f, live)
		}
		d.Reset()
	})
	if allocs != 0 {
		t.Errorf("Offer+Reset allocates %.1f times per run, want 0", allocs)
	}
}
