package tsv

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	return NewChannel(stack.DefaultConfig())
}

// unreachableAddrBits lists, ascending, the address TSVs whose faults
// remain unrepaired; each makes half of the channel's rows unreachable.
func unreachableAddrBits(ch *Channel) []int { return pendingIndices(ch.faultyAddr, ch.repairedAddr) }

func TestStandbyPool(t *testing.T) {
	ch := newTestChannel(t)
	want := []int{0, 64, 128, 192}
	got := ch.standby
	if len(got) != len(want) {
		t.Fatalf("standby pool size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("standby[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSwapDataBits(t *testing.T) {
	ch := newTestChannel(t)
	bits := ch.SwapDataBits()
	// Paper: bit[0], bit[64], ..., bit[448] — 8 bits total.
	if len(bits) != 8 {
		t.Fatalf("swap data bits = %d, want 8", len(bits))
	}
	want := map[int]bool{0: true, 64: true, 128: true, 192: true, 256: true, 320: true, 384: true, 448: true}
	for _, b := range bits {
		if !want[b] {
			t.Errorf("unexpected swap bit %d", b)
		}
	}
}

func TestRepairSingleDataTSV(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectDataFault(1); err != nil {
		t.Fatal(err)
	}
	if n := len(ch.CorruptedBits()); n != 2 {
		t.Fatalf("DTSV fault corrupts %d bits, want 2 (burst length)", n)
	}
	if got := ch.RunBIST(); got != 1 {
		t.Fatalf("RunBIST repaired %d, want 1", got)
	}
	if n := len(ch.CorruptedBits()); n != 0 {
		t.Errorf("%d bits corrupt after repair", n)
	}
}

func TestRepairAddrTSV(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectAddrFault(0); err != nil {
		t.Fatal(err)
	}
	if n := len(unreachableAddrBits(ch)); n != 1 {
		t.Fatalf("unrepaired addr faults = %d, want 1", n)
	}
	ch.RunBIST()
	if n := len(unreachableAddrBits(ch)); n != 0 {
		t.Errorf("addr fault not repaired")
	}
}

func TestRepairBudget(t *testing.T) {
	ch := newTestChannel(t)
	// 4 stand-by TSVs x burst 2 = 8 beats. 8 addr faults cost 1 beat each.
	for k := 0; k < 8; k++ {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.RunBIST(); got != 8 {
		t.Fatalf("repaired %d addr faults, want 8", got)
	}
	// Ninth fault exceeds the budget.
	if err := ch.InjectAddrFault(8); err != nil {
		t.Fatal(err)
	}
	if got := ch.RunBIST(); got != 0 {
		t.Fatalf("repaired %d beyond budget, want 0", got)
	}
	if n := len(unreachableAddrBits(ch)); n != 1 {
		t.Errorf("unrepaired addr faults = %d, want 1", n)
	}
}

func TestDataRepairCostsBurstBeats(t *testing.T) {
	ch := newTestChannel(t)
	// 4 data faults cost 2 beats each = 8 beats, exactly the budget.
	for _, tsv := range []int{10, 20, 30, 40} {
		if err := ch.InjectDataFault(tsv); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.RunBIST(); got != 4 {
		t.Fatalf("repaired %d data faults, want 4", got)
	}
	if ch.beatsFree != 0 {
		t.Errorf("beats free = %d, want 0", ch.beatsFree)
	}
	if err := ch.InjectDataFault(50); err != nil {
		t.Fatal(err)
	}
	if got := ch.RunBIST(); got != 0 {
		t.Errorf("repaired %d with no budget", got)
	}
}

func TestAddrFaultsPrioritized(t *testing.T) {
	ch := newTestChannel(t)
	// 4 data faults (8 beats) + 2 addr faults (2 beats) exceed the budget;
	// the addr faults must win slots first.
	for _, tsv := range []int{10, 20, 30, 40} {
		if err := ch.InjectDataFault(tsv); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	ch.RunBIST()
	if n := len(unreachableAddrBits(ch)); n != 0 {
		t.Errorf("addr faults unrepaired = %d, want 0 (priority)", n)
	}
	// 8-2 = 6 beats left for data: 3 of 4 repaired.
	if n := len(ch.CorruptedBits()); n != 2 {
		t.Errorf("corrupted bits = %d, want 2 (one data TSV left)", n)
	}
}

func TestInjectValidation(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectDataFault(-1); err == nil {
		t.Error("accepted negative data TSV")
	}
	if err := ch.InjectDataFault(256); err == nil {
		t.Error("accepted out-of-range data TSV")
	}
	if err := ch.InjectAddrFault(24); err == nil {
		t.Error("accepted out-of-range addr TSV")
	}
}

func TestDetectorFlow(t *testing.T) {
	ch := newTestChannel(t)
	det := NewDetector(ch)
	// Healthy channel: CRC mismatch does not implicate TSVs.
	if tsvFault, _ := det.OnCRCMismatch(); tsvFault {
		t.Error("healthy channel flagged TSV fault")
	}
	if err := ch.InjectDataFault(7); err != nil {
		t.Fatal(err)
	}
	tsvFault, repairs := det.OnCRCMismatch()
	if !tsvFault {
		t.Error("faulty TSV not detected")
	}
	if repairs != 1 {
		t.Errorf("repairs = %d, want 1", repairs)
	}
}

func TestSwapperApply(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSwapper(cfg)
	mkFault := func(class fault.Class, stackIdx, die, tsvIdx int) fault.Fault {
		return fault.Fault{
			Class: class,
			TSV:   tsvIdx,
			Region: fault.Region{
				Stack: stackIdx,
				Die:   fault.ExactPattern(uint32(die)),
				Bank:  fault.AllPattern(),
				Row:   fault.AllPattern(),
				Col:   fault.AllPattern(),
			},
		}
	}
	handled, repaired := s.Apply(mkFault(fault.DataTSV, 0, 3, 42))
	if !handled || !repaired {
		t.Errorf("data TSV fault: handled=%v repaired=%v", handled, repaired)
	}
	// Non-TSV faults pass through untouched.
	handled, _ = s.Apply(fault.Fault{Class: fault.Bank})
	if handled {
		t.Error("bank fault handled by swapper")
	}
	// Exhaust one channel's budget; other channels are unaffected.
	for i := 0; i < 4; i++ {
		s.Apply(mkFault(fault.DataTSV, 0, 5, i+1))
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 0, 5, 200))
	if repaired {
		t.Error("repaired beyond channel budget")
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 0, 6, 200))
	if !repaired {
		t.Error("fresh channel failed to repair")
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 1, 5, 200))
	if !repaired {
		t.Error("other stack's channel failed to repair")
	}
}

// TestFaultListsAscending pins the order of CorruptedBits and of the
// pending address TSVs: ascending, and the same on every call, whatever
// order the faults arrived in.
func TestFaultListsAscending(t *testing.T) {
	ch := NewChannelWithPool(stack.DefaultConfig(), 1)
	for _, tsv := range []int{200, 3, 130, 77} {
		if err := ch.InjectDataFault(tsv); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{20, 2, 11} {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	// One stand-by TSV (2 beats) repairs address TSVs 2 and 11 only.
	if got := ch.RunBIST(); got != 2 {
		t.Fatalf("RunBIST repaired %d, want 2", got)
	}
	wantBits := []int{3, 77, 130, 200, 259, 333, 386, 456}
	for i := 0; i < 10; i++ {
		if got := ch.CorruptedBits(); !slices.Equal(got, wantBits) {
			t.Fatalf("call %d: CorruptedBits = %v, want %v", i, got, wantBits)
		}
		if got := unreachableAddrBits(ch); !slices.Equal(got, []int{20}) {
			t.Fatalf("call %d: unreachable address TSVs = %v, want [20]", i, got)
		}
	}
}

// BenchmarkSwapperApply measures TSV-SWAP as the engine drives it: one op
// is a trial of two TSV arrivals on a reused Swapper — Reset, then Apply
// of each — with arrivals drawn uniformly over the system's channels.
func BenchmarkSwapperApply(b *testing.B) {
	cfg := stack.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	faults := make([]fault.Fault, 1024)
	for i := range faults {
		faults[i] = randomTSVFault(rng, cfg)
	}
	s := NewSwapper(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Apply(faults[2*i%len(faults)])
		s.Apply(faults[(2*i+1)%len(faults)])
	}
}
