package faultsim

import (
	"context"
	"sort"

	"repro/internal/fault"
	"repro/internal/stack"
	"repro/internal/tsv"
)

// Census tallies the anatomy of permanent faults over device lifetimes,
// reproducing the analyses behind the paper's Figure 17 (rows needed to
// spare a faulty bank is bimodal) and Table III (number of failed banks in
// systems with at least one).
type Census struct {
	// Trials counts the lifetimes actually simulated; fewer than
	// requested when the census was cancelled (see Partial).
	Trials int
	// RowsHistogram[n] counts faulty banks that would need n spare rows.
	RowsHistogram map[int]int
	// FailedBanksPerSystem[k] counts trials whose system ended with exactly
	// k failed banks (banks needing more than FailedBankThreshold rows).
	FailedBanksPerSystem map[int]int
	// TrialsWithBankFailure counts trials with at least one failed bank.
	TrialsWithBankFailure int
	// FailedBankThreshold is the DDS escalation rule (paper: 4 rows).
	FailedBankThreshold int
	// Partial reports that the census was cancelled before all requested
	// trials completed; the tallies cover the completed trials only.
	Partial bool
}

// FaultyBankTotal returns the total number of faulty banks observed.
func (c Census) FaultyBankTotal() int {
	total := 0
	for _, n := range c.RowsHistogram {
		total += n
	}
	return total
}

// RowsPercent returns the percentage of faulty banks needing exactly n
// spare rows.
func (c Census) RowsPercent(n int) float64 {
	total := c.FaultyBankTotal()
	if total == 0 {
		return 0
	}
	return 100 * float64(c.RowsHistogram[n]) / float64(total)
}

// FailedBanksPercent returns the Table-III distribution: the percentage of
// bank-failure systems having exactly k failed banks (k>=3 aggregates into
// the last bucket when aggregate3Plus is true).
func (c Census) FailedBanksPercent(k int, aggregate3Plus bool) float64 {
	if c.TrialsWithBankFailure == 0 {
		return 0
	}
	count := 0
	if aggregate3Plus && k >= 3 {
		for kk, n := range c.FailedBanksPerSystem {
			if kk >= 3 {
				count += n
			}
		}
	} else {
		count = c.FailedBanksPerSystem[k]
	}
	return 100 * float64(count) / float64(c.TrialsWithBankFailure)
}

// SortedRowCounts returns the distinct row counts in ascending order.
func (c Census) SortedRowCounts() []int {
	keys := make([]int, 0, len(c.RowsHistogram))
	for k := range c.RowsHistogram {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// RunCensusContext simulates lifetimes and tallies permanent-fault
// anatomy. useTSVSwap filters TSV faults through TSV-SWAP first, as the
// DDS analysis assumes (paper §V-D: "all systems employ TSV-Swap for the
// remainder"). The executor checks ctx between trial blocks and a
// cancelled run returns the tallies gathered so far, marked Partial. A
// census never fails a trial, so a TargetFailures in opt runs it to
// MaxTrials.
func RunCensusContext(ctx context.Context, opt Options, useTSVSwap bool) Census {
	c := Census{
		RowsHistogram:        make(map[int]int),
		FailedBanksPerSystem: make(map[int]int),
		FailedBankThreshold:  4,
	}
	lanes, trials, _, err := execute(ctx, opt, "census", func(int, Arrivals) *censusLane {
		l := &censusLane{
			cfg:        opt.Config,
			threshold:  c.FailedBankThreshold,
			perBank:    map[int]int{},
			rowsHist:   map[int]int{},
			failedHist: map[int]int{},
		}
		if useTSVSwap {
			l.swapper = tsv.NewSwapper(opt.Config)
		}
		return l
	})
	c.Trials = trials
	c.Partial = err != nil
	for _, l := range lanes {
		for k, v := range l.rowsHist {
			c.RowsHistogram[k] += v
		}
		for k, v := range l.failedHist {
			c.FailedBanksPerSystem[k] += v
		}
		c.TrialsWithBankFailure += l.withFailure
	}
	return c
}

// censusLane is RunCensusContext's per-worker trial body. Its pools are
// reset per trial, the same allocation discipline as trialState.
type censusLane struct {
	cfg       stack.Config
	threshold int
	swapper   *tsv.Swapper // nil without TSV-SWAP
	// perBank holds the rows needed per bank in the current trial, keyed
	// by dense bank id incl. the metadata die.
	perBank     map[int]int
	rowsHist    map[int]int
	failedHist  map[int]int
	withFailure int
}

// trial tallies one lifetime's permanent-fault anatomy; a census never
// fails a trial.
func (l *censusLane) trial(_ int, fs []fault.Fault) bool {
	cfg := l.cfg
	dies := cfg.DataDies + cfg.ECCDies
	if l.swapper != nil {
		l.swapper.Reset()
	}
	clear(l.perBank)
	for _, f := range fs {
		if f.Persistence != fault.Permanent {
			continue
		}
		if l.swapper != nil && f.Class.IsTSV() {
			if _, repaired := l.swapper.Apply(f); repaired {
				continue
			}
		}
		rows := f.RowsNeedingSparing(cfg)
		for die := 0; die < dies; die++ {
			if !f.Region.Die.Contains(uint32(die)) {
				continue
			}
			for bank := 0; bank < cfg.BanksPerDie; bank++ {
				if !f.Region.Bank.Contains(uint32(bank)) {
					continue
				}
				id := (f.Region.Stack*dies+die)*cfg.BanksPerDie + bank
				l.perBank[id] += rows
				if l.perBank[id] > cfg.RowsPerBank {
					l.perBank[id] = cfg.RowsPerBank
				}
			}
		}
	}
	failed := 0
	for _, rows := range l.perBank {
		l.rowsHist[rows]++
		if rows > l.threshold {
			failed++
		}
	}
	if failed > 0 {
		l.withFailure++
		l.failedHist[failed]++
	}
	return false
}

func (*censusLane) scrubs() int64 { return 0 }

func (*censusLane) finish() {}
