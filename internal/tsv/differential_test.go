package tsv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// refChannel is a map-based model of one channel's TSV-SWAP state: the
// plain reading of the paper's BIST flow, kept as the reference the bitset
// Channel must match step for step.
type refChannel struct {
	cfg        stack.Config
	faultyData map[int]bool
	faultyAddr map[int]bool
	// trr holds the repaired TSVs: data indices as is, address indices
	// offset by refAddrKey.
	trr       map[int]bool
	beatsFree int
}

const refAddrKey = 1 << 20

func newRefChannel(cfg stack.Config, pool int) *refChannel {
	if pool <= 0 {
		pool = DefaultStandbyCount
	}
	return &refChannel{
		cfg:        cfg,
		faultyData: map[int]bool{},
		faultyAddr: map[int]bool{},
		trr:        map[int]bool{},
		beatsFree:  pool * cfg.BurstLength,
	}
}

func (c *refChannel) inject(class fault.Class, i int) bool {
	switch {
	case class == fault.DataTSV && i >= 0 && i < c.cfg.DataTSVs:
		c.faultyData[i] = true
	case class == fault.AddrTSV && i >= 0 && i < c.cfg.AddrTSVs:
		c.faultyAddr[i] = true
	default:
		return false
	}
	return true
}

func (c *refChannel) runBIST() int {
	repaired := 0
	for k := 0; k < c.cfg.AddrTSVs; k++ {
		if !c.faultyAddr[k] || c.trr[refAddrKey+k] {
			continue
		}
		if c.beatsFree < addrRepairCost {
			return repaired
		}
		c.beatsFree -= addrRepairCost
		c.trr[refAddrKey+k] = true
		repaired++
	}
	for t := 0; t < c.cfg.DataTSVs; t++ {
		if !c.faultyData[t] || c.trr[t] {
			continue
		}
		if c.beatsFree < c.cfg.BurstLength {
			return repaired
		}
		c.beatsFree -= c.cfg.BurstLength
		c.trr[t] = true
		repaired++
	}
	return repaired
}

func (c *refChannel) repaired(class fault.Class, i int) bool {
	switch class {
	case fault.DataTSV:
		return c.trr[i]
	case fault.AddrTSV:
		return c.trr[refAddrKey+i]
	}
	return false
}

// corrupted and unreachable list the unrepaired faults, sorted.
func (c *refChannel) corrupted() []int {
	var out []int
	for t := range c.faultyData {
		if !c.trr[t] {
			out = append(out, c.cfg.BitsOnTSV(t)...)
		}
	}
	sort.Ints(out)
	return out
}

func (c *refChannel) unreachable() []int {
	var out []int
	for k := range c.faultyAddr {
		if !c.trr[refAddrKey+k] {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// refSwapper is the map-based model of Swapper: channels keyed by
// (stack, die), built on first use, all cleared by reset.
type refSwapper struct {
	cfg      stack.Config
	pool     int
	channels map[[2]int]*refChannel
}

func (s *refSwapper) reset() { clear(s.channels) }

func (s *refSwapper) apply(f fault.Fault) (handled, repaired bool) {
	if !f.Class.IsTSV() {
		return false, false
	}
	key := [2]int{f.Region.Stack, int(f.Region.Die.Val)}
	if key[0] < 0 || key[0] >= s.cfg.Stacks || key[1] < 0 || key[1] >= s.cfg.DataDies+s.cfg.ECCDies {
		return true, false // no such channel
	}
	ch := s.channels[key]
	if ch == nil {
		ch = newRefChannel(s.cfg, s.pool)
		s.channels[key] = ch
	}
	if !ch.inject(f.Class, f.TSV) {
		return true, false
	}
	if len(ch.corrupted()) > 0 || len(ch.unreachable()) > 0 {
		ch.runBIST()
	}
	return true, ch.repaired(f.Class, f.TSV)
}

// tsvFault builds a TSV fault event on one channel.
func tsvFault(class fault.Class, stackIdx, die, tsvIdx int) fault.Fault {
	return fault.Fault{
		Class:       class,
		Persistence: fault.Permanent,
		TSV:         tsvIdx,
		Region: fault.Region{
			Stack: stackIdx,
			Die:   fault.ExactPattern(uint32(die)),
			Bank:  fault.AllPattern(),
			Row:   fault.AllPattern(),
			Col:   fault.AllPattern(),
		},
	}
}

// randomTSVFault draws a TSV fault the way the sampler places one: a
// uniform channel (metadata die included) and a data or address TSV in
// proportion to their counts.
func randomTSVFault(rng *rand.Rand, cfg stack.Config) fault.Fault {
	stackIdx := rng.Intn(cfg.Stacks)
	die := rng.Intn(cfg.DataDies + cfg.ECCDies)
	if rng.Intn(cfg.DataTSVs+cfg.AddrTSVs) < cfg.DataTSVs {
		return tsvFault(fault.DataTSV, stackIdx, die, rng.Intn(cfg.DataTSVs))
	}
	return tsvFault(fault.AddrTSV, stackIdx, die, rng.Intn(cfg.AddrTSVs))
}

// stray moves one fault in 32 to a TSV index just outside the channel,
// which the models must both reject and leave unrepaired.
func stray(rng *rand.Rand, cfg stack.Config, f fault.Fault) fault.Fault {
	if rng.Intn(32) == 0 {
		n := cfg.DataTSVs
		if f.Class == fault.AddrTSV {
			n = cfg.AddrTSVs
		}
		f.TSV = []int{-1, n}[rng.Intn(2)]
	}
	return f
}

// concentrated draws faults on a few channels of stack 0 so that stand-by
// budgets run out, which a uniform draw over the system rarely does.
func concentrated(rng *rand.Rand, cfg stack.Config) fault.Fault {
	f := randomTSVFault(rng, cfg)
	f.Region.Stack = 0
	f.Region.Die = fault.ExactPattern(uint32(rng.Intn(min(2, cfg.DataDies+cfg.ECCDies))))
	return f
}

// The differential tests run every organization: the paper's 256 data
// TSVs plus the 512- and 32-TSV ones, so the bitsets are tested at whole,
// multiple and partial word sizes.

func TestChannelMatchesMapReference(t *testing.T) {
	for _, org := range stack.Organizations() {
		for pool := 1; pool <= 8; pool++ {
			t.Run(fmt.Sprintf("%s/pool%d", org.Name, pool), func(t *testing.T) {
				cfg := org.Config
				rng := rand.New(rand.NewSource(int64(pool)))
				ch := NewChannelWithPool(cfg, pool)
				for trial := 0; trial < 50; trial++ {
					ch.Reset()
					ref := newRefChannel(cfg, pool)
					var injected []fault.Fault
					for step := 0; step < 40; step++ {
						f := stray(rng, cfg, randomTSVFault(rng, cfg))
						var err error
						if f.Class == fault.DataTSV {
							err = ch.InjectDataFault(f.TSV)
						} else {
							err = ch.InjectAddrFault(f.TSV)
						}
						if ok := ref.inject(f.Class, f.TSV); ok != (err == nil) {
							t.Fatalf("trial %d step %d: inject %v %d: error %v, reference accepted %v", trial, step, f.Class, f.TSV, err, ok)
						}
						injected = append(injected, f)
						if rng.Intn(3) == 0 {
							if got, want := ch.RunBIST(), ref.runBIST(); got != want {
								t.Fatalf("trial %d step %d: RunBIST = %d, reference %d", trial, step, got, want)
							}
						}
						if got, want := ch.beatsFree, ref.beatsFree; got != want {
							t.Fatalf("trial %d step %d: beats free = %d, reference %d", trial, step, got, want)
						}
						if got, want := ch.CorruptedBits(), ref.corrupted(); !slices.Equal(got, want) {
							t.Fatalf("trial %d step %d: CorruptedBits = %v, reference %v", trial, step, got, want)
						}
						if got, want := unreachableAddrBits(ch), ref.unreachable(); !slices.Equal(got, want) {
							t.Fatalf("trial %d step %d: unreachable address TSVs = %v, reference %v", trial, step, got, want)
						}
						if anyPending(ch.faultyData, ch.repairedData) != (len(ref.corrupted()) > 0) || anyPending(ch.faultyAddr, ch.repairedAddr) != (len(ref.unreachable()) > 0) {
							t.Fatalf("trial %d step %d: emptiness tests disagree with the lists", trial, step)
						}
						for _, g := range injected {
							if got, want := ch.Repaired(g), ref.repaired(g.Class, g.TSV); got != want {
								t.Fatalf("trial %d step %d: Repaired(%v %d) = %v, reference %v", trial, step, g.Class, g.TSV, got, want)
							}
						}
					}
				}
			})
		}
	}
}

func TestSwapperMatchesMapReference(t *testing.T) {
	for _, org := range stack.Organizations() {
		for pool := 1; pool <= 8; pool++ {
			t.Run(fmt.Sprintf("%s/pool%d", org.Name, pool), func(t *testing.T) {
				cfg := org.Config
				rng := rand.New(rand.NewSource(int64(100 + pool)))
				s := NewSwapperWithPool(cfg, pool)
				ref := &refSwapper{cfg: cfg, pool: pool, channels: map[[2]int]*refChannel{}}
				for trial := 0; trial < 200; trial++ {
					s.Reset()
					ref.reset()
					draw := randomTSVFault
					if trial%2 == 1 {
						draw = concentrated
					}
					for step := rng.Intn(24); step >= 0; step-- {
						f := stray(rng, cfg, draw(rng, cfg))
						if rng.Intn(16) == 0 {
							f.Class = fault.Bank // passes through both untouched
						}
						gh, gr := s.Apply(f)
						wh, wr := ref.apply(f)
						if gh != wh || gr != wr {
							t.Fatalf("trial %d: Apply(%v s%d d%d tsv %d) = (%v, %v), reference (%v, %v)",
								trial, f.Class, f.Region.Stack, f.Region.Die.Val, f.TSV, gh, gr, wh, wr)
						}
					}
					faulted := 0
					for key, rc := range ref.channels {
						if got := s.channel(key[0], key[1]).beatsFree; got != rc.beatsFree {
							t.Fatalf("trial %d: channel %v beats free = %d, reference %d", trial, key, got, rc.beatsFree)
						}
						if len(rc.faultyData)+len(rc.faultyAddr) > 0 {
							faulted++
						}
					}
					// Reset is to visit each faulted channel once.
					if len(s.touched) != faulted {
						t.Fatalf("trial %d: %d channels listed for Reset, %d faulted", trial, len(s.touched), faulted)
					}
				}
			})
		}
	}
}

// TestSwapperPendingStaysPending checks the premise of Swapper's
// constant-time rule over every organization and pool size: after each
// Apply, no pending fault (faulty, not repaired) of any channel costs as
// few beats as the channel has left, so no later BIST pass could repair
// it. Arrivals repeat earlier ones and stray past the channel's TSVs.
func TestSwapperPendingStaysPending(t *testing.T) {
	for _, org := range stack.Organizations() {
		for pool := 1; pool <= 8; pool++ {
			t.Run(fmt.Sprintf("%s/pool%d", org.Name, pool), func(t *testing.T) {
				cfg := org.Config
				rng := rand.New(rand.NewSource(int64(200 + pool)))
				s := NewSwapperWithPool(cfg, pool)
				pending := 0
				for trial := 0; trial < 200; trial++ {
					s.Reset()
					draw := randomTSVFault
					if trial%2 == 1 {
						draw = concentrated
					}
					var seen []fault.Fault
					for step := rng.Intn(24); step >= 0; step-- {
						f := draw(rng, cfg)
						if len(seen) > 0 && rng.Intn(6) == 0 {
							f = seen[rng.Intn(len(seen))]
						}
						f = stray(rng, cfg, f)
						seen = append(seen, f)
						s.Apply(f)
						for _, ch := range s.channels {
							if ch == nil {
								continue
							}
							data := pendingIndices(ch.faultyData, ch.repairedData)
							addr := pendingIndices(ch.faultyAddr, ch.repairedAddr)
							if (len(data) > 0 && ch.dataRepairCost() <= ch.beatsFree) ||
								(len(addr) > 0 && addrRepairCost <= ch.beatsFree) {
								t.Fatalf("trial %d: %d beats left with data TSVs %v and address TSVs %v pending", trial, ch.beatsFree, data, addr)
							}
							pending += len(data) + len(addr)
						}
					}
				}
				if pending == 0 {
					t.Fatal("no fault was ever left pending; the draws never exhaust a budget")
				}
			})
		}
	}
}

// FuzzSwapperMatchesReference drives Swapper and the map-based refSwapper
// with one fuzzed arrival sequence. Each 5-byte record is an arrival —
// class (data TSV, address TSV or a non-TSV pass-through), stack and die
// one past the geometry on either side, and a TSV index in [-1, n] — or,
// for a first byte of 0xff, a Reset of both. Apply must agree on every
// arrival, and every channel's budget and the Reset list after it.
func FuzzSwapperMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0, 1, 1, 7, 0, 0, 1, 1, 7, 0, 1, 1, 1, 2, 0})
	f.Add(uint8(1), uint8(0), []byte{0, 1, 2, 1, 0, 0, 1, 2, 2, 0, 0, 1, 2, 3, 0, 0xff, 0, 0, 0, 0, 0, 1, 2, 1, 0})
	f.Add(uint8(2), uint8(7), []byte{1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 255, 255, 3, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, orgIdx, pool uint8, ops []byte) {
		orgs := stack.Organizations()
		cfg := orgs[int(orgIdx)%len(orgs)].Config
		p := 1 + int(pool)%8
		dies := cfg.DataDies + cfg.ECCDies
		s := NewSwapperWithPool(cfg, p)
		ref := &refSwapper{cfg: cfg, pool: p, channels: map[[2]int]*refChannel{}}
		for ; len(ops) >= 5; ops = ops[5:] {
			if ops[0] == 0xff {
				s.Reset()
				ref.reset()
				continue
			}
			class, n := fault.DataTSV, cfg.DataTSVs
			switch ops[0] % 4 {
			case 1:
				class, n = fault.AddrTSV, cfg.AddrTSVs
			case 3:
				class = fault.Bank
			}
			g := tsvFault(class, int(ops[1])%(cfg.Stacks+2)-1, int(ops[2])%(dies+2)-1,
				(int(ops[3])|int(ops[4])<<8)%(n+2)-1)
			gh, gr := s.Apply(g)
			wh, wr := ref.apply(g)
			if gh != wh || gr != wr {
				t.Fatalf("Apply(%v s%d d%d tsv %d) = (%v, %v), reference (%v, %v)",
					g.Class, g.Region.Stack, int32(g.Region.Die.Val), g.TSV, gh, gr, wh, wr)
			}
			faulted := 0
			for key, rc := range ref.channels {
				if got := s.channel(key[0], key[1]).beatsFree; got != rc.beatsFree {
					t.Fatalf("channel %v beats free = %d, reference %d", key, got, rc.beatsFree)
				}
				if len(rc.faultyData)+len(rc.faultyAddr) > 0 {
					faulted++
				}
			}
			if len(s.touched) != faulted {
				t.Fatalf("%d channels listed for Reset, %d faulted", len(s.touched), faulted)
			}
		}
	})
}

// TestSwapperOutsideGeometry pins the answer for a TSV fault on a channel
// the configuration does not have, or on a TSV the channel does not have:
// handled, and never repaired.
func TestSwapperOutsideGeometry(t *testing.T) {
	cfg := stack.DefaultConfig()
	dies := cfg.DataDies + cfg.ECCDies
	s := NewSwapper(cfg)
	for _, f := range []fault.Fault{
		tsvFault(fault.DataTSV, cfg.Stacks, 0, 1),
		tsvFault(fault.DataTSV, -1, 0, 1),
		tsvFault(fault.AddrTSV, 0, dies, 1),
		tsvFault(fault.DataTSV, 0, 0, cfg.DataTSVs),
		tsvFault(fault.AddrTSV, 0, 0, -1),
	} {
		if handled, repaired := s.Apply(f); !handled || repaired {
			t.Errorf("Apply(%v s%d d%d tsv %d) = (%v, %v), want (true, false)",
				f.Class, f.Region.Stack, f.Region.Die.Val, f.TSV, handled, repaired)
		}
	}
	s.Reset()
	if handled, repaired := s.Apply(tsvFault(fault.AddrTSV, 0, dies-1, 0)); !handled || !repaired {
		t.Errorf("metadata-die fault after out-of-geometry ones: (%v, %v), want (true, true)", handled, repaired)
	}
}

func TestApplyResetDoNotAllocate(t *testing.T) {
	cfg := stack.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	faults := make([]fault.Fault, 64)
	for i := range faults {
		faults[i] = concentrated(rng, cfg)
	}
	s := NewSwapper(cfg)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range faults {
			s.Apply(f)
		}
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("Apply+Reset allocates %.1f times per run, want 0", allocs)
	}
}
