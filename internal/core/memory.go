// Package core is the functional model of Citadel: a simulated 3D stack
// with fault injection, per-line CRC-32 metadata, TSV-SWAP, working
// Tri-Dimensional Parity (real XOR reconstruction, not just capability
// analysis), and Dynamic Dual-granularity Sparing with live redirection
// tables. It executes the paper's full read path (Figure 6): CRC check →
// TSV probe/BIST/swap → 3DP reconstruction → DDS sparing.
//
// TSV-SWAP is internal/tsv's, the state and repair rule the Monte Carlo
// engine's tsv.Swapper uses: each channel is a tsv.Channel, and a CRC
// mismatch runs tsv.Detector's fixed-row probe and BIST on the channel
// read. BIST runs when a read detects a fault, not when the fault
// arrives, so when every TSV arrival is followed by a read it corrupts,
// the controller repairs exactly the TSVs Swapper.Apply repairs.
//
// The model is exact but eager: 3DP reconstruction reads whole parity
// groups, so use small geometries (see TinyConfig) for tests and examples.
// The Monte Carlo reliability engine (internal/faultsim) uses the symbolic
// fault algebra instead; this package exists to validate that algebra
// against a bit-accurate implementation and to demonstrate the mechanism.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/stack"
	"repro/internal/tsv"
)

// TinyConfig returns a geometry small enough for exhaustive functional
// simulation: one stack, 4 data dies + 1 metadata die, 4 banks per die,
// 32 rows per bank, 512-byte rows, 64-byte lines.
func TinyConfig() stack.Config {
	return stack.Config{
		Stacks:      1,
		DataDies:    4,
		ECCDies:     1,
		BanksPerDie: 4,
		RowsPerBank: 32,
		RowBytes:    512,
		LineBytes:   64,
		DataTSVs:    256,
		AddrTSVs:    5,
		BurstLength: 2,
	}
}

// lineKey identifies one stored cache line.
type lineKey struct {
	stack, die, bank, row, line int
}

func keyOf(co stack.Coord) lineKey {
	return lineKey{co.Stack, co.Die, co.Bank, co.Row, co.Line}
}

// SimStack is the raw storage array plus the physical fault state. Reads
// pass through the injected faults: permanently faulty cells return
// corrupted data, faulty data TSVs flip their bit positions on every
// transfer, and faulty address TSVs redirect reads of half the rows to the
// aliased row (returning valid-looking but wrong data, which only the
// address-seeded CRC can catch), until TSV-SWAP redirects them.
type SimStack struct {
	cfg  stack.Config
	data map[lineKey][]byte

	faults []fault.Fault
	// channels holds the TSV health and TSV-SWAP state of every channel,
	// metadata dies included, at index stack*(DataDies+ECCDies)+die.
	channels []*tsv.Channel
}

// NewSimStack builds an all-zero stack.
func NewSimStack(cfg stack.Config) *SimStack {
	channels := make([]*tsv.Channel, cfg.Stacks*(cfg.DataDies+cfg.ECCDies))
	for i := range channels {
		channels[i] = tsv.NewChannel(cfg)
	}
	return &SimStack{cfg: cfg, data: make(map[lineKey][]byte), channels: channels}
}

// channel returns the TSV-SWAP state of one channel, or nil for a
// (stack, die) outside the geometry.
func (s *SimStack) channel(stackIdx, die int) *tsv.Channel {
	dies := s.cfg.DataDies + s.cfg.ECCDies
	if stackIdx < 0 || stackIdx >= s.cfg.Stacks || die < 0 || die >= dies {
		return nil
	}
	return s.channels[stackIdx*dies+die]
}

// Config returns the geometry.
func (s *SimStack) Config() stack.Config { return s.cfg }

// Inject adds a fault to the physical state. A TSV fault also marks its
// TSV faulty in the channel its footprint names, (Region.Stack,
// Region.Die.Val), the channel tsv.Swapper.Apply picks.
func (s *SimStack) Inject(f fault.Fault) {
	s.faults = append(s.faults, f)
	if ch := s.channel(f.Region.Stack, int(f.Region.Die.Val)); ch != nil {
		// A TSV index outside the channel marks nothing and so is never
		// repaired, as Swapper.Apply answers for it.
		switch f.Class {
		case fault.DataTSV:
			_ = ch.InjectDataFault(f.TSV)
		case fault.AddrTSV:
			_ = ch.InjectAddrFault(f.TSV)
		}
	}
}

// Faults returns the injected faults.
func (s *SimStack) Faults() []fault.Fault { return s.faults }

// WriteRaw stores a line without any fault effects (writes drive the cells;
// faulty cells simply won't hold the data, which reads model).
func (s *SimStack) WriteRaw(co stack.Coord, data []byte) error {
	if !s.cfg.Valid(co) {
		return fmt.Errorf("core: invalid coordinate %v", co)
	}
	if len(data) != s.cfg.LineBytes {
		return fmt.Errorf("core: line must be %d bytes, got %d", s.cfg.LineBytes, len(data))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	s.data[keyOf(co)] = buf
	return nil
}

// ReadRaw fetches a line with all fault effects applied.
func (s *SimStack) ReadRaw(co stack.Coord) ([]byte, error) {
	if !s.cfg.Valid(co) {
		return nil, fmt.Errorf("core: invalid coordinate %v", co)
	}
	ch := s.channel(co.Stack, co.Die)
	// Address-TSV faults alias the row address before the array is read.
	effective := co
	for i := range s.faults {
		f := &s.faults[i]
		if f.Class != fault.AddrTSV || f.Region.Stack != co.Stack ||
			!f.Region.Die.Contains(uint32(co.Die)) || ch.Repaired(*f) {
			continue
		}
		// The broken address bit is stuck: rows in the unreachable half
		// alias to their counterpart in the reachable half.
		mask := f.Region.Row.Mask
		if f.Region.Row.Contains(uint32(co.Row)) {
			effective.Row = int(uint32(co.Row) ^ mask)
		}
	}
	out := make([]byte, s.cfg.LineBytes)
	if stored, ok := s.data[keyOf(effective)]; ok {
		copy(out, stored)
	}
	// Cell faults corrupt the stored bits the footprint covers.
	lineColBase := effective.Line * s.cfg.LineBytes * 8
	for i := range s.faults {
		f := &s.faults[i]
		if f.Class.IsTSV() {
			continue
		}
		if f.Region.Stack != co.Stack {
			continue
		}
		if !f.Region.Die.Contains(uint32(co.Die)) ||
			!f.Region.Bank.Contains(uint32(co.Bank)) ||
			!f.Region.Row.Contains(uint32(effective.Row)) {
			continue
		}
		for bit := 0; bit < s.cfg.LineBytes*8; bit++ {
			if f.Region.Col.Contains(uint32(lineColBase + bit)) {
				// Stuck-at value derived from the cell position: stable
				// across reads (permanent fault behaviour).
				stuck := byte((effective.Row + co.Bank + bit) & 1)
				byteIdx, mask := bit/8, byte(1)<<(bit%8)
				if stuck == 1 {
					out[byteIdx] |= mask
				} else {
					out[byteIdx] &^= mask
				}
			}
		}
	}
	// Faulty data TSVs not yet redirected flip their bit positions on
	// every transfer.
	for _, bit := range ch.CorruptedBits() {
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out, nil
}

// ClearTransientFaults drops transient faults from the physical state —
// the effect of a scrub pass after their corruption has been corrected.
// It returns the number of faults removed.
func (s *SimStack) ClearTransientFaults() int {
	kept := s.faults[:0]
	for _, f := range s.faults {
		if f.Persistence != fault.Transient || f.Class.IsTSV() {
			kept = append(kept, f)
		}
	}
	removed := len(s.faults) - len(kept)
	s.faults = kept
	return removed
}

// lineFaulty reports whether a line's cells carry a permanent array fault
// (used by sparing decisions).
func (s *SimStack) lineFaulty(co stack.Coord) bool {
	base := co.Line * s.cfg.LineBytes * 8
	for i := range s.faults {
		f := &s.faults[i]
		if f.Class.IsTSV() || f.Persistence != fault.Permanent {
			continue
		}
		if f.Region.Stack != co.Stack {
			continue
		}
		if !f.Region.Die.Contains(uint32(co.Die)) ||
			!f.Region.Bank.Contains(uint32(co.Bank)) ||
			!f.Region.Row.Contains(uint32(co.Row)) {
			continue
		}
		for bit := 0; bit < s.cfg.LineBytes*8; bit++ {
			if f.Region.Col.Contains(uint32(base + bit)) {
				return true
			}
		}
	}
	return false
}
