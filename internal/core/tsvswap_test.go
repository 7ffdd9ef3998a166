package core

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
	"repro/internal/tsv"
)

// tsvAt builds a TSV fault on one channel of stack 0. An address-TSV
// fault breaks row-address bit rowBit: reads of the rows whose bit equals
// half's alias to the other half.
func tsvAt(class fault.Class, die, tsvIdx, rowBit, half int) fault.Fault {
	f := fault.Fault{
		Class:       class,
		Persistence: fault.Permanent,
		TSV:         tsvIdx,
		Region: fault.Region{
			Die:  fault.ExactPattern(uint32(die)),
			Bank: fault.AllPattern(),
			Row:  fault.AllPattern(),
			Col:  fault.AllPattern(),
		},
	}
	if class == fault.AddrTSV {
		f.Region.Row = fault.MaskPattern(1<<uint(rowBit), uint32(half)<<uint(rowBit))
	}
	return f
}

// readTSVChannel reads line idx of a channel with TSV faults. It returns
// the right data while TSV-SWAP has redirected every faulty TSV, and
// ErrDataLoss once one is left pending: an unrepaired data TSV flips the
// same bits of every line in its channel, and each parity group of a line
// holds other lines of that channel. Any other outcome fails the test.
func readTSVChannel(t *testing.T, c *Controller, idx int64, want []byte) {
	t.Helper()
	got, err := c.Read(idx)
	if err != nil && !errors.Is(err, ErrDataLoss) {
		t.Fatalf("Read(%d): %v", idx, err)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("Read(%d) returned wrong data", idx)
	}
}

// TestTSVRepairsStopAtStandbyBudget: four stand-by TSVs of two beats each
// redirect at most four faulty data TSVs per channel, whether the faults
// are read one at a time or all at once. The controller used to refill the
// budget on every CRC mismatch, and so repaired all six read one at a
// time.
func TestTSVRepairsStopAtStandbyBudget(t *testing.T) {
	tsvs := []int{7, 20, 33, 99, 150, 201}
	for _, readEach := range []bool{true, false} {
		c := newCtl(t)
		want := fillRandom(t, c, rand.New(rand.NewSource(11)), 64) // die 0, bank 0, rows 0-7
		for i, tv := range tsvs {
			c.InjectFault(tsvAt(fault.DataTSV, 0, tv, 0, 0))
			if readEach || i == len(tsvs)-1 {
				readTSVChannel(t, c, int64(8*i), want[int64(8*i)])
			}
		}
		if got := c.Stats().TSVRepairs; got != 4 {
			t.Errorf("read after each fault %v: TSV repairs = %d, want 4", readEach, got)
		}
	}
}

// TestBISTRepairsAddressTSVFirst: with six of the eight beats spent, a
// pass that finds a data-TSV and an address-TSV fault pending repairs the
// address TSV (one beat) and leaves the data TSV (two beats) pending, so
// reads of the channel still fail their CRC where the address fault no
// longer reaches. The controller used to refill the budget and repair
// both.
func TestBISTRepairsAddressTSVFirst(t *testing.T) {
	c := newCtl(t)
	want := fillRandom(t, c, rand.New(rand.NewSource(12)), 64) // die 0, bank 0, rows 0-7
	for i, tv := range []int{7, 20, 33} {
		c.InjectFault(tsvAt(fault.DataTSV, 0, tv, 0, 0))
		readTSVChannel(t, c, int64(i), want[int64(i)])
	}
	if got := c.Stats().TSVRepairs; got != 3 {
		t.Fatalf("TSV repairs after three data faults = %d, want 3", got)
	}
	// Row-address bit 2 set aliases rows 4-7 onto rows 0-3. Line 32 is
	// row 4, line 8 row 1.
	c.InjectFault(tsvAt(fault.DataTSV, 0, 99, 0, 0))
	c.InjectFault(tsvAt(fault.AddrTSV, 0, 1, 2, 1))
	readTSVChannel(t, c, 32, want[32])
	s := c.Stats()
	if s.TSVRepairs != 4 {
		t.Errorf("TSV repairs = %d, want 4 (the address TSV only)", s.TSVRepairs)
	}
	readTSVChannel(t, c, 8, want[8])
	if got := c.Stats().CRCMismatches - s.CRCMismatches; got != 1 {
		t.Errorf("a read of row 1 took %d CRC mismatches, want 1 (the data TSV is pending)", got)
	}
}

// tsvDiff runs one sequence of TSV arrivals through a Controller and a
// tsv.Swapper, the engine's TSV-SWAP. Before each arrival it writes a
// line the arrival corrupts and after injecting it reads that line, so
// the controller's BIST runs where Swapper.Apply decides.
type tsvDiff struct {
	ctl      *Controller
	sw       *tsv.Swapper
	rng      *rand.Rand
	arrivals []fault.Fault
	want     []bool          // Apply's repaired answer for each arrival
	fixed    map[[3]int]bool // the (class, die, TSV) Apply repaired
}

func newTSVDiff(t testing.TB, seed int64) *tsvDiff {
	t.Helper()
	ctl, err := NewController(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &tsvDiff{
		ctl:   ctl,
		sw:    tsv.NewSwapper(ctl.Config()),
		rng:   rand.New(rand.NewSource(seed)),
		fixed: make(map[[3]int]bool),
	}
}

// arrive injects f, a TSV fault on a data die of stack 0, into both
// models and reads a line it corrupts. Then every arrival so far must be
// repaired in the controller's channel exactly when Apply repaired it,
// and the controller must have counted one repair per TSV Apply repaired.
// It returns Apply's answer.
func (d *tsvDiff) arrive(t testing.TB, f fault.Fault) bool {
	t.Helper()
	cfg := d.ctl.Config()
	co := stack.Coord{
		Die:  int(f.Region.Die.Val),
		Bank: d.rng.Intn(cfg.BanksPerDie),
		Row:  d.rng.Intn(cfg.RowsPerBank),
		Line: d.rng.Intn(cfg.LinesPerRow()),
	}
	if f.Class == fault.AddrTSV {
		co.Row = int(f.Region.Row.Val) % cfg.RowsPerBank // a row the fault aliases
	}
	idx := cfg.LineIndex(co)
	line := make([]byte, cfg.LineBytes)
	d.rng.Read(line)
	if err := d.ctl.Write(idx, line); err != nil {
		t.Fatal(err)
	}
	d.ctl.InjectFault(f)
	_, repaired := d.sw.Apply(f)
	if _, err := d.ctl.Read(idx); err != nil && !errors.Is(err, ErrDataLoss) {
		t.Fatal(err)
	}
	d.arrivals = append(d.arrivals, f)
	d.want = append(d.want, repaired)
	if repaired {
		d.fixed[[3]int{int(f.Class), co.Die, f.TSV}] = true
	}
	for i, g := range d.arrivals {
		if got := d.ctl.mem.channel(0, int(g.Region.Die.Val)).Repaired(g); got != d.want[i] {
			t.Fatalf("after arrival %d: %v on die %d TSV %d (arrival %d) repaired %v, Swapper.Apply said %v",
				len(d.arrivals), g.Class, g.Region.Die.Val, g.TSV, i+1, got, d.want[i])
		}
	}
	if got, want := d.ctl.Stats().TSVRepairs, uint64(len(d.fixed)); got != want {
		t.Fatalf("after arrival %d: controller counted %d TSV repairs, Swapper.Apply repaired %d TSVs",
			len(d.arrivals), got, want)
	}
	return repaired
}

// TestControllerTSVMatchesSwapper checks the functional controller's
// TSV-SWAP against the engine's over sampled TinyConfig lifetimes at an
// inflated TSV rate, about three faults per data channel, so budgets run
// out. Faults on the metadata die are dropped: the controller serves
// metadata-die reads with no fault effects, so it never detects them.
func TestControllerTSVMatchesSwapper(t *testing.T) {
	cfg := TinyConfig()
	sampler := fault.NewSampler(cfg, fault.Rates{TSVPerDie: 60000})
	rng := rand.New(rand.NewSource(5))
	var faults []fault.Fault
	var repaired, pending, addr int
	for life := 0; life < 300; life++ {
		d := newTSVDiff(t, int64(life))
		faults = sampler.AppendLifetime(rng, fault.LifetimeHours, faults[:0])
		for _, f := range faults {
			if int(f.Region.Die.Val) >= cfg.DataDies {
				continue
			}
			if f.Class == fault.AddrTSV {
				addr++
			}
			if d.arrive(t, f) {
				repaired++
			} else {
				pending++
			}
		}
	}
	t.Logf("%d arrivals repaired, %d left pending, %d on address TSVs", repaired, pending, addr)
	if repaired == 0 || pending == 0 || addr == 0 {
		t.Fatalf("%d repaired, %d pending and %d address-TSV arrivals: the lifetimes do not exercise the budget", repaired, pending, addr)
	}
}

// FuzzControllerTSVMatchesSwapper runs fuzzed arrival sequences through
// the controller and tsv.Swapper (see tsvDiff). Each 5-byte record, up to
// 48, is an arrival: a data or address TSV or a repeat of an earlier
// arrival, a data die, a TSV index in [-1, n] (one past each end of the
// channel's range), and for an address TSV the row-address bit and half
// it breaks.
func FuzzControllerTSVMatchesSwapper(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 7, 0, 0, 0, 0, 20, 0, 0, 0, 0, 33, 0, 0, 0, 0, 99, 0, 0, 0, 0, 150, 0, 0, 0, 0, 201, 0, 0})
	f.Add(int64(2), []byte{0, 1, 7, 0, 0, 0, 1, 20, 0, 0, 0, 1, 33, 0, 0, 0, 1, 99, 0, 0, 1, 1, 1, 0, 7})
	f.Add(int64(3), []byte{0, 2, 0, 0, 0, 1, 2, 6, 0, 3, 0, 2, 1, 1, 0, 2, 0, 0, 0, 0, 1, 3, 0, 0, 9})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		d := newTSVDiff(t, seed)
		cfg := d.ctl.Config()
		rowBits := bits.Len(uint(cfg.RowsPerBank - 1))
		for n := 0; len(ops) >= 5 && n < 48; ops, n = ops[5:], n+1 {
			class, count := fault.DataTSV, cfg.DataTSVs
			switch ops[0] % 3 {
			case 1:
				class, count = fault.AddrTSV, cfg.AddrTSVs
			case 2:
				if len(d.arrivals) > 0 {
					d.arrive(t, d.arrivals[int(ops[2])%len(d.arrivals)])
				}
				continue
			}
			tv := (int(ops[2])|int(ops[3])<<8)%(count+2) - 1
			d.arrive(t, tsvAt(class, int(ops[1])%cfg.DataDies, tv, int(ops[4])%rowBits, int(ops[4])/rowBits%2))
		}
	})
}
