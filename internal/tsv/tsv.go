// Package tsv models through-silicon-via faults and Citadel's TSV-SWAP
// repair mechanism (paper §V).
//
// Each channel owns DataTSVs data TSVs and AddrTSVs address TSVs shared by
// all banks on the die. TSV-SWAP designates a small pool of existing data
// TSVs as stand-by TSVs: their bits are replicated in the per-line metadata
// (8 bits of "swap data"), so a stand-by TSV can be rerouted — via the TSV
// Redirection Register (TRR) and pass-transistor swap lanes — to carry the
// traffic of a faulty data or address TSV without losing information.
//
// Repair budget: a stand-by data TSV provides BurstLength (2) transfer
// beats. Redirecting a faulty data TSV consumes a whole stand-by TSV (both
// beats); redirecting a faulty address TSV consumes a single beat. With four
// stand-by TSVs this yields the paper's "up to 8 faulty TSVs" capacity when
// the faults are address TSVs.
package tsv

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/stack"
)

// DefaultStandbyCount is the number of data TSVs designated as stand-by
// (DTSV-0, DTSV-64, DTSV-128, DTSV-192 in the paper's design).
const DefaultStandbyCount = 4

// Channel tracks TSV health and TSV-SWAP state for one channel (die).
type Channel struct {
	cfg     stack.Config
	standby []int // stand-by data TSV indices

	// Bitsets over TSV indices (bit i of word i/64). faulty marks injected
	// faults; repaired marks the faulty TSVs BIST redirected through the
	// TRR, so faulty &^ repaired is what still needs a lane.
	faultyData, repairedData []uint64
	faultyAddr, repairedAddr []uint64

	beatsFree int // remaining stand-by transfer beats
}

// NewChannel builds TSV-SWAP state for one channel with the paper's
// default stand-by pool.
func NewChannel(cfg stack.Config) *Channel { return NewChannelWithPool(cfg, DefaultStandbyCount) }

// NewChannelWithPool builds TSV-SWAP state with n stand-by TSVs spread
// evenly across the data TSVs (for pool-size sensitivity studies).
func NewChannelWithPool(cfg stack.Config, n int) *Channel {
	if n <= 0 {
		n = DefaultStandbyCount
	}
	standby := make([]int, n)
	for i := range standby {
		standby[i] = i * cfg.DataTSVs / n
	}
	dataWords, addrWords := words(cfg.DataTSVs), words(cfg.AddrTSVs)
	return &Channel{
		cfg:          cfg,
		standby:      standby,
		faultyData:   make([]uint64, dataWords),
		repairedData: make([]uint64, dataWords),
		faultyAddr:   make([]uint64, addrWords),
		repairedAddr: make([]uint64, addrWords),
		beatsFree:    n * cfg.BurstLength,
	}
}

// words returns the number of 64-bit words a bitset over n indices needs.
func words(n int) int { return (n + 63) / 64 }

// hasBit reports whether index i is set in the bitset.
func hasBit(set []uint64, i int) bool {
	return i >= 0 && i < 64*len(set) && set[i/64]&(1<<(i%64)) != 0
}

// Reset restores the channel to its freshly-built state, keeping its
// bitsets so the Monte Carlo engine can reuse channels across trials.
func (c *Channel) Reset() {
	clear(c.faultyData)
	clear(c.repairedData)
	clear(c.faultyAddr)
	clear(c.repairedAddr)
	c.beatsFree = len(c.standby) * c.cfg.BurstLength
}

// hasFaults reports whether any TSV fault was injected since the last Reset.
func (c *Channel) hasFaults() bool {
	for _, w := range c.faultyData {
		if w != 0 {
			return true
		}
	}
	for _, w := range c.faultyAddr {
		if w != 0 {
			return true
		}
	}
	return false
}

// Standby returns the stand-by data TSV indices.
func (c *Channel) Standby() []int { return append([]int(nil), c.standby...) }

// SwapDataBits returns the line bit positions replicated in metadata: the
// bits carried by the stand-by TSVs (8 bits for the default config, matching
// the 8-bit swap-data field of Citadel's metadata).
func (c *Channel) SwapDataBits() []int {
	var bitsOut []int
	for _, t := range c.standby {
		bitsOut = append(bitsOut, c.cfg.BitsOnTSV(t)...)
	}
	return bitsOut
}

// BeatsFree returns the remaining repair budget in transfer beats.
func (c *Channel) BeatsFree() int { return c.beatsFree }

// InjectDataFault marks a data TSV faulty. It returns an error for an
// out-of-range index.
func (c *Channel) InjectDataFault(t int) error {
	if t < 0 || t >= c.cfg.DataTSVs {
		return fmt.Errorf("tsv: data TSV %d out of range [0,%d)", t, c.cfg.DataTSVs)
	}
	c.faultyData[t/64] |= 1 << (t % 64)
	return nil
}

// InjectAddrFault marks an address TSV faulty.
func (c *Channel) InjectAddrFault(k int) error {
	if k < 0 || k >= c.cfg.AddrTSVs {
		return fmt.Errorf("tsv: addr TSV %d out of range [0,%d)", k, c.cfg.AddrTSVs)
	}
	c.faultyAddr[k/64] |= 1 << (k % 64)
	return nil
}

// dataRepairCost and addrRepairCost are the beat costs of each repair type.
const (
	addrRepairCost = 1
)

func (c *Channel) dataRepairCost() int { return c.cfg.BurstLength }

// RunBIST scans for unrepaired faulty TSVs and repairs as many as the
// stand-by budget allows, loading the TRR. It returns the number of repairs
// performed. Data TSV faults on stand-by TSVs themselves need no lane (their
// bits already live in metadata) but still consume that stand-by's beats.
func (c *Channel) RunBIST() int {
	// Address TSVs first: a single ATSV fault makes half the channel
	// unreachable, so they are the most valuable repairs (paper Insight 1).
	repaired, exhausted := c.repairPending(c.faultyAddr, c.repairedAddr, addrRepairCost)
	if exhausted {
		return repaired
	}
	data, _ := c.repairPending(c.faultyData, c.repairedData, c.dataRepairCost())
	return repaired + data
}

// repairPending redirects the faulty, unrepaired TSVs of one bitset pair in
// ascending index order, cost beats each, while the budget lasts. It
// returns the repairs made and whether it stopped at a fault the remaining
// budget could not pay for.
func (c *Channel) repairPending(faulty, repaired []uint64, cost int) (n int, exhausted bool) {
	for w := range faulty {
		for pending := faulty[w] &^ repaired[w]; pending != 0; pending &= pending - 1 {
			if c.beatsFree < cost {
				return n, true
			}
			c.beatsFree -= cost
			repaired[w] |= pending & -pending
			n++
		}
	}
	return n, false
}

// Repaired reports whether the given TSV fault has been redirected.
func (c *Channel) Repaired(f fault.Fault) bool {
	switch f.Class {
	case fault.DataTSV:
		return hasBit(c.repairedData, f.TSV)
	case fault.AddrTSV:
		return hasBit(c.repairedAddr, f.TSV)
	default:
		return false
	}
}

// CorruptedBits returns, in ascending order, the line bit positions still
// corrupted by unrepaired faulty data TSVs.
func (c *Channel) CorruptedBits() []int {
	var out []int
	pending := pendingIndices(c.faultyData, c.repairedData)
	// Beat b of data TSV t carries line bit t + b*DataTSVs, so walking the
	// beats outermost yields the positions in ascending order.
	for beat := 0; beat < c.cfg.BitsPerTSVPerLine(); beat++ {
		for _, t := range pending {
			out = append(out, t+beat*c.cfg.DataTSVs)
		}
	}
	return out
}

// UnreachableAddrBits returns, in ascending order, the address-TSV indices
// whose faults remain unrepaired; each makes half of the channel's rows
// unreachable.
func (c *Channel) UnreachableAddrBits() []int {
	return pendingIndices(c.faultyAddr, c.repairedAddr)
}

// pendingIndices lists the indices set in faulty but not in repaired, in
// ascending order.
func pendingIndices(faulty, repaired []uint64) []int {
	var out []int
	for w := range faulty {
		for pending := faulty[w] &^ repaired[w]; pending != 0; pending &= pending - 1 {
			out = append(out, 64*w+bits.TrailingZeros64(pending))
		}
	}
	return out
}

// anyPending reports whether some index is set in faulty but not in
// repaired.
func anyPending(faulty, repaired []uint64) bool {
	for w := range faulty {
		if faulty[w]&^repaired[w] != 0 {
			return true
		}
	}
	return false
}

// HasCorruptedBits reports whether any unrepaired faulty data TSV remains —
// the emptiness test of CorruptedBits without building the bit list (the
// simulator asks this on every TSV event).
func (c *Channel) HasCorruptedBits() bool { return anyPending(c.faultyData, c.repairedData) }

// HasUnreachableAddr reports whether any unrepaired faulty address TSV
// remains — the emptiness test of UnreachableAddrBits without allocating.
func (c *Channel) HasUnreachableAddr() bool { return anyPending(c.faultyAddr, c.repairedAddr) }

// Detector models Citadel's TSV-fault detection flow (paper §V-C.2): two
// fixed rows per die hold known data at bit-inverse addresses. A CRC
// mismatch on a demand read triggers a read of the fixed rows; a mismatch
// there points at TSV (rather than cell) faults and triggers BIST.
type Detector struct {
	ch *Channel
	// FixedRowsCorrupt is set by the functional model when a read of the
	// fixed rows returns unexpected data.
	FixedRowsCorrupt bool
}

// NewDetector builds a detector for a channel.
func NewDetector(ch *Channel) *Detector { return &Detector{ch: ch} }

// FixedRowAddresses returns the two probe row addresses: all-zeros and
// all-ones within the row address space, each bit the inverse of the other.
func (d *Detector) FixedRowAddresses() (int, int) {
	return 0, d.ch.cfg.RowsPerBank - 1
}

// CheckFixedRows simulates reading the fixed rows: they appear corrupt when
// any unrepaired data-TSV fault corrupts their bits, or when an unrepaired
// address-TSV fault makes one of them unreachable.
func (d *Detector) CheckFixedRows() bool {
	if d.ch.HasCorruptedBits() || d.ch.HasUnreachableAddr() {
		d.FixedRowsCorrupt = true
		return true
	}
	d.FixedRowsCorrupt = false
	return false
}

// OnCRCMismatch drives the detection flow: probe the fixed rows, and when
// they implicate the TSVs, run BIST to repair. It reports whether a TSV
// fault was found and how many repairs were made.
func (d *Detector) OnCRCMismatch() (tsvFault bool, repairs int) {
	if !d.CheckFixedRows() {
		return false, 0
	}
	return true, d.ch.RunBIST()
}

// Swapper applies TSV-SWAP across a whole system for the reliability
// simulator: it consumes TSV fault events and reports which remain
// unrepaired (and therefore keep their footprints).
type Swapper struct {
	cfg  stack.Config
	pool int
	dies int // channels per stack: the data dies plus the metadata dies
	// channels is indexed by stack*dies+die; each is built on first use.
	channels []*Channel
	// touched lists, once each, the channels faulted since the last Reset,
	// so a reset costs what the trial used rather than the whole system.
	touched []*Channel
}

// NewSwapper builds system-wide TSV-SWAP state with the default pool.
func NewSwapper(cfg stack.Config) *Swapper { return NewSwapperWithPool(cfg, DefaultStandbyCount) }

// NewSwapperWithPool builds system-wide TSV-SWAP state with n stand-by
// TSVs per channel.
func NewSwapperWithPool(cfg stack.Config, n int) *Swapper {
	dies := cfg.DataDies + cfg.ECCDies
	return &Swapper{cfg: cfg, pool: n, dies: dies, channels: make([]*Channel, cfg.Stacks*dies)}
}

// channel returns (lazily creating) the per-channel state, or nil for a
// (stack, die) outside the geometry.
func (s *Swapper) channel(stackIdx, die int) *Channel {
	if stackIdx < 0 || stackIdx >= s.cfg.Stacks || die < 0 || die >= s.dies {
		return nil
	}
	i := stackIdx*s.dies + die
	ch := s.channels[i]
	if ch == nil {
		ch = NewChannelWithPool(s.cfg, s.pool)
		s.channels[i] = ch
	}
	return ch
}

// Reset restores every channel faulted since the last reset to its
// freshly-built state, retaining the channel objects so a Swapper can be
// reused across Monte Carlo trials.
func (s *Swapper) Reset() {
	for _, ch := range s.touched {
		ch.Reset()
	}
	s.touched = s.touched[:0]
}

// Apply consumes a TSV fault event, injects it into the owning channel,
// runs detection/BIST, and reports whether the fault was repaired. Non-TSV
// faults are ignored (returned as unrepaired=false, handled=false). A TSV
// fault outside the geometry — no such channel or TSV — is handled and
// stays unrepaired.
func (s *Swapper) Apply(f fault.Fault) (handled, repaired bool) {
	if !f.Class.IsTSV() {
		return false, false
	}
	ch := s.channel(f.Region.Stack, int(f.Region.Die.Val))
	if ch == nil {
		return true, false
	}
	fresh := !ch.hasFaults()
	var err error
	switch f.Class {
	case fault.DataTSV:
		err = ch.InjectDataFault(f.TSV)
	case fault.AddrTSV:
		err = ch.InjectAddrFault(f.TSV)
	}
	if err != nil {
		return true, false
	}
	if fresh {
		s.touched = append(s.touched, ch)
	}
	// The detection flow of Detector.OnCRCMismatch, inlined so the hot path
	// does not allocate a Detector per event: corrupt fixed rows implicate
	// the TSVs and trigger BIST.
	if ch.HasCorruptedBits() || ch.HasUnreachableAddr() {
		ch.RunBIST()
	}
	return true, ch.Repaired(f)
}
