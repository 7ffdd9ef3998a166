package perfsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/stack"
	"repro/internal/workload"
)

func prof(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	return p
}

func runCfg(striping stack.Striping, ov Overheads, requests int) Config {
	c := DefaultConfig()
	c.Striping = striping
	c.Overhead = ov
	c.Requests = requests
	return c
}

func TestDeterministic(t *testing.T) {
	p := prof(t, "mcf")
	a := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 20000))
	b := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 20000))
	if a != b {
		t.Errorf("same config produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestStripingSlowdownOrdering(t *testing.T) {
	// Figure 5: Same-Bank fastest, Across-Banks ~10% slower, Across-Channels
	// ~25% slower (more for memory-bound benchmarks).
	for _, name := range []string{"mcf", "GemsFDTD", "stream"} {
		p := prof(t, name)
		sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
		ab := RunContext(context.Background(), p, runCfg(stack.AcrossBanks, Overheads{}, 30000))
		ac := RunContext(context.Background(), p, runCfg(stack.AcrossChannels, Overheads{}, 30000))
		if !(sb.Cycles < ab.Cycles && ab.Cycles < ac.Cycles) {
			t.Errorf("%s: cycles not ordered: sb=%d ab=%d ac=%d",
				name, sb.Cycles, ab.Cycles, ac.Cycles)
		}
	}
}

func TestComputeBoundInsensitiveToStriping(t *testing.T) {
	// Figure 15's left side: compute-bound benchmarks barely notice.
	p := prof(t, "povray")
	sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 20000))
	ac := RunContext(context.Background(), p, runCfg(stack.AcrossChannels, Overheads{}, 20000))
	ratio := float64(ac.Cycles) / float64(sb.Cycles)
	if ratio > 1.05 {
		t.Errorf("povray across-channels slowdown %.3f, want <= 1.05", ratio)
	}
}

func TestStripingActivationFanOut(t *testing.T) {
	p := prof(t, "mcf")
	sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
	ab := RunContext(context.Background(), p, runCfg(stack.AcrossBanks, Overheads{}, 30000))
	// Striping over 8 banks multiplies activations several-fold.
	if ab.Power.Activates < 4*sb.Power.Activates {
		t.Errorf("across-banks activates %d not >> same-bank %d",
			ab.Power.Activates, sb.Power.Activates)
	}
	// Bytes moved are identical regardless of striping.
	if ab.Power.ReadBytes != sb.Power.ReadBytes {
		t.Errorf("read bytes differ: ab=%d sb=%d", ab.Power.ReadBytes, sb.Power.ReadBytes)
	}
}

func TestStripingPowerRatio(t *testing.T) {
	// Figure 5/16: striping costs ~3.8-4.7x active power. Accept a broad
	// band around the paper's numbers for a memory-bound benchmark.
	pp := power.Default8Gb()
	p := prof(t, "lbm")
	sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
	ab := RunContext(context.Background(), p, runCfg(stack.AcrossBanks, Overheads{}, 30000))
	ratio := pp.ActivePower(ab.Power) / pp.ActivePower(sb.Power)
	if ratio < 2 || ratio > 8 {
		t.Errorf("across-banks power ratio %.2f, want within (2,8)", ratio)
	}
}

func TestCitadel3DPNearBaseline(t *testing.T) {
	// Figure 15: 3DP with parity caching is within ~2% of baseline.
	for _, name := range []string{"mcf", "lbm", "dealII"} {
		p := prof(t, name)
		sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
		dp := RunContext(context.Background(), p, runCfg(stack.SameBank, Citadel3DP(0.85), 30000))
		ratio := float64(dp.Cycles) / float64(sb.Cycles)
		if ratio > 1.06 {
			t.Errorf("%s: 3DP slowdown %.3f, want <= 1.06", name, ratio)
		}
	}
}

func TestParityCachingHelps(t *testing.T) {
	// Figure 15: 3DP without caching is measurably slower than with.
	p := prof(t, "lbm")
	withCache := RunContext(context.Background(), p, runCfg(stack.SameBank, Citadel3DP(0.85), 30000))
	noCache := RunContext(context.Background(), p, runCfg(stack.SameBank, Citadel3DPNoCache(), 30000))
	if noCache.Cycles <= withCache.Cycles {
		t.Errorf("no-cache (%d) not slower than cached (%d)",
			noCache.Cycles, withCache.Cycles)
	}
}

func TestRowHitRateTracksProfile(t *testing.T) {
	for _, tc := range []struct {
		name string
		lo   float64
		hi   float64
	}{
		{"libquantum", 0.7, 1.0}, // profile 0.90
		{"mcf", 0.1, 0.5},        // profile 0.30
	} {
		p := prof(t, tc.name)
		st := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
		if r := st.RowHitRate(); r < tc.lo || r > tc.hi {
			t.Errorf("%s: row hit rate %.2f outside [%.2f,%.2f]", tc.name, r, tc.lo, tc.hi)
		}
	}
}

func TestCPINonZero(t *testing.T) {
	p := prof(t, "gcc")
	st := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 10000))
	if st.CPI(DefaultTiming()) <= 0 {
		t.Error("CPI not positive")
	}
	if st.Instructions == 0 {
		t.Error("no instructions recorded")
	}
	var zero Stats
	if zero.CPI(DefaultTiming()) != 0 || zero.RowHitRate() != 0 {
		t.Error("zero stats accessors should be 0")
	}
}

func TestParityCacheHitRateFig13(t *testing.T) {
	// Figure 13: parity caching hits ~85% on average.
	var sum float64
	n := 0
	for _, name := range []string{"mcf", "lbm", "gcc", "stream", "bwaves"} {
		p := prof(t, name)
		r := ParityCacheHitRateContext(context.Background(), p, 8<<20, 8, 150000, 7)
		if r.ParityProbes == 0 {
			t.Fatalf("%s: no parity probes", name)
		}
		sum += r.HitRate()
		n++
	}
	avg := sum / float64(n)
	if avg < 0.7 || avg > 0.98 {
		t.Errorf("average parity hit rate %.2f, want ~0.85", avg)
	}
}

func TestLineIndexWithinBounds(t *testing.T) {
	s := &sim{cfg: DefaultConfig()}
	total := s.cfg.Stack.TotalLines()
	for _, addr := range []uint64{0, 1, 12345, 1 << 30, 1 << 40} {
		idx := s.lineIndex(addr)
		if idx < 0 || idx >= total {
			t.Errorf("lineIndex(%d) = %d out of [0,%d)", addr, idx, total)
		}
	}
}

func TestParityLineSharedAcrossBanks(t *testing.T) {
	// Lines at the same (row, slot) in different banks/dies share one
	// Dimension-1 parity line — the locality parity caching exploits.
	s := &sim{cfg: DefaultConfig()}
	cfg := s.cfg.Stack
	a := cfg.LineIndex(stack.Coord{Stack: 0, Die: 1, Bank: 2, Row: 100, Line: 5})
	b := cfg.LineIndex(stack.Coord{Stack: 0, Die: 4, Bank: 7, Row: 100, Line: 5})
	c := cfg.LineIndex(stack.Coord{Stack: 0, Die: 1, Bank: 2, Row: 101, Line: 5})
	if s.parityLine(a) != s.parityLine(b) {
		t.Error("same (row,slot) in different banks should share a parity line")
	}
	if s.parityLine(a) == s.parityLine(c) {
		t.Error("different rows should not share a parity line")
	}
}

func TestReadLatencyIncreasesUnderStriping(t *testing.T) {
	p := prof(t, "mcf")
	sb := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
	ac := RunContext(context.Background(), p, runCfg(stack.AcrossChannels, Overheads{}, 30000))
	if sb.AvgReadLatency() <= 0 {
		t.Fatal("no read latency recorded")
	}
	if ac.AvgReadLatency() <= sb.AvgReadLatency() {
		t.Errorf("across-channels latency %.1f not above same-bank %.1f",
			ac.AvgReadLatency(), sb.AvgReadLatency())
	}
	if sb.Reads == 0 {
		t.Error("no reads counted")
	}
}

func TestTraceReplayMatchesGenerator(t *testing.T) {
	// Replaying the generator's own stream must reproduce the generated
	// run exactly.
	p := prof(t, "gcc")
	cfg := runCfg(stack.SameBank, Overheads{}, 10000)
	cfg.Seed = 5
	direct := RunContext(context.Background(), p, cfg)

	reqs := workload.NewGenerator(p, cfg.Cores, cfg.Seed).Stream(10000)
	src, err := workload.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	replay := cfg
	replay.Trace = src
	viaTrace := RunContext(context.Background(), p, replay)
	if direct != viaTrace {
		t.Errorf("trace replay diverged:\n%+v\n%+v", direct, viaTrace)
	}
}

func TestRunContextCancellation(t *testing.T) {
	p := prof(t, "mcf")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	requests := 50_000_000
	start := time.Now()
	st := RunContext(ctx, p, runCfg(stack.SameBank, Overheads{}, requests))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if !st.Partial {
		t.Fatal("cancelled run not marked Partial")
	}
	if st.RequestsDone <= 0 || st.RequestsDone >= requests {
		t.Errorf("RequestsDone = %d, want in (0, %d)", st.RequestsDone, requests)
	}
	if st.Cycles == 0 {
		t.Error("partial run has no cycle count")
	}
}

func TestRunContextCompleteNotPartial(t *testing.T) {
	p := prof(t, "mcf")
	st := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 5000))
	if st.Partial {
		t.Error("complete run marked Partial")
	}
	if st.RequestsDone != 5000 {
		t.Errorf("RequestsDone = %d, want 5000", st.RequestsDone)
	}
}

func TestParityCacheHitRateContextCancel(t *testing.T) {
	p := prof(t, "lbm")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := ParityCacheHitRateContext(ctx, p, 8<<20, 8, 1_000_000, 1)
	if !r.Partial {
		t.Error("pre-cancelled measurement not marked Partial")
	}
	if r.ParityProbes != 0 {
		t.Errorf("pre-cancelled measurement probed %d times", r.ParityProbes)
	}
}
