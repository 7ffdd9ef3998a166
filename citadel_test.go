package citadel

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSchemeNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Schemes() {
		name := s.String()
		if name == "" || seen[name] {
			t.Errorf("bad or duplicate scheme name %q", name)
		}
		seen[name] = true
	}
	if len(Schemes()) != 12 {
		t.Errorf("Schemes() = %d entries, want 12", len(Schemes()))
	}
}

// simulate runs Simulate to completion and fails the test on a
// configuration error.
func simulate(t *testing.T, opts ReliabilityOptions, scheme Scheme) Result {
	t.Helper()
	res, err := Simulate(context.Background(), opts, scheme)
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	return res
}

func TestSimulateReliabilityDefaults(t *testing.T) {
	r := simulate(t, ReliabilityOptions{Trials: 3000, Seed: 1}, Scheme3DP)
	if r.Trials != 3000 {
		t.Errorf("trials = %d", r.Trials)
	}
	if r.Policy != "3DP" {
		t.Errorf("policy = %q", r.Policy)
	}
	if len(r.FailuresByYear) != 7 {
		t.Errorf("years = %d, want 7 (default lifetime)", len(r.FailuresByYear))
	}
}

func TestCompareReliabilityOrdering(t *testing.T) {
	// Core sanity at boosted rates: None fails most; Citadel least.
	rates := Table1Rates()
	rates.BankPermanent *= 50
	rates.RowPermanent *= 50
	opts := ReliabilityOptions{Rates: rates, Trials: 4000, Seed: 3}
	var rs []Result
	for _, s := range []Scheme{SchemeNone, Scheme1DP, Scheme3DP, SchemeCitadel} {
		rs = append(rs, simulate(t, opts, s))
	}
	if !(rs[0].Failures >= rs[1].Failures && rs[1].Failures >= rs[2].Failures && rs[2].Failures >= rs[3].Failures) {
		t.Errorf("ordering violated: %v", []int{rs[0].Failures, rs[1].Failures, rs[2].Failures, rs[3].Failures})
	}
	if rs[0].Failures == 0 {
		t.Error("no signal")
	}
}

func TestTSVSwapOptionPropagates(t *testing.T) {
	opts := ReliabilityOptions{
		Rates:   Table1Rates().WithTSV(1430),
		Trials:  4000,
		Seed:    4,
		TSVSwap: true,
	}
	with := simulate(t, opts, SchemeSymbol8SameBank)
	opts.TSVSwap = false
	without := simulate(t, opts, SchemeSymbol8SameBank)
	if with.Failures >= without.Failures {
		t.Errorf("TSV-Swap did not reduce failures: with=%d without=%d",
			with.Failures, without.Failures)
	}
	if with.Policy == without.Policy {
		t.Error("policy names should distinguish TSV-Swap")
	}
}

func TestStorageOverheadMatchesPaper(t *testing.T) {
	ov := ComputeStorageOverhead(DefaultConfig())
	if math.Abs(ov.MetadataFraction-0.125) > 1e-9 {
		t.Errorf("metadata fraction = %v, want 0.125", ov.MetadataFraction)
	}
	if math.Abs(ov.ParityBankFraction-1.0/64) > 1e-9 {
		t.Errorf("parity bank fraction = %v, want 1/64", ov.ParityBankFraction)
	}
	// Paper §VII-E: ~14% total, ~35KB SRAM.
	if ov.Total() < 0.13 || ov.Total() > 0.15 {
		t.Errorf("total overhead = %v, want ~0.14", ov.Total())
	}
	if ov.SRAMBytes < 30<<10 || ov.SRAMBytes > 40<<10 {
		t.Errorf("SRAM = %d bytes, want ~35KB", ov.SRAMBytes)
	}
}

// TestRunFaultCensus: the census draws from the fault model it is given,
// and rejects what it cannot honour.
func TestRunFaultCensus(t *testing.T) {
	ctx := context.Background()
	rates := Table1Rates()
	rates.BankPermanent *= 100
	opts := ReliabilityOptions{Rates: rates, Trials: 2000, Seed: 5, TSVSwap: true}
	c, err := RunFaultCensus(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultyBankTotal() == 0 {
		t.Error("census empty")
	}
	hammer := opts
	hammer.FaultModel = "rowhammer"
	if h, err := RunFaultCensus(ctx, hammer); err != nil || reflect.DeepEqual(h, c) {
		t.Errorf("rowhammer census (err %v) equals the Poisson census", err)
	}
	for _, bad := range []func(*ReliabilityOptions){
		func(o *ReliabilityOptions) { o.FaultModel = "meteor" },
		func(o *ReliabilityOptions) { o.ScenarioParams = map[string]float64{"warp": 1} },
		func(o *ReliabilityOptions) { o.RareEvent = true },
		func(o *ReliabilityOptions) { o.BiasFactor = 4 },
		func(o *ReliabilityOptions) { o.TargetFailures = 10 },
		func(o *ReliabilityOptions) { o.MaxTrials = 10 },
		func(o *ReliabilityOptions) { o.LifetimeYears = -1 },
	} {
		o := opts
		bad(&o)
		if c, err := RunFaultCensus(ctx, o); err == nil {
			t.Errorf("census accepted %+v: %d trials", o, c.Trials)
		}
	}
}

func TestBenchmarksExposed(t *testing.T) {
	if len(Benchmarks()) != 38 {
		t.Errorf("benchmarks = %d, want 38", len(Benchmarks()))
	}
	if _, ok := BenchmarkByName("mcf"); !ok {
		t.Error("mcf missing")
	}
	if _, ok := BenchmarkByName("nope"); ok {
		t.Error("unknown benchmark found")
	}
}

func TestSimulatePerformanceAPI(t *testing.T) {
	b, _ := BenchmarkByName("gcc")
	base := SimulatePerformance(context.Background(), b, PerfOptions{Requests: 10000, Seed: 1})
	if base.Cycles == 0 || base.ActivePowerWatts <= 0 {
		t.Fatalf("degenerate result: %+v", base)
	}
	striped := SimulatePerformance(context.Background(), b, PerfOptions{
		Striping: AcrossChannels, Requests: 10000, Seed: 1,
	})
	if striped.Cycles <= base.Cycles {
		t.Error("across-channels not slower than baseline for gcc")
	}
	if base.Benchmark != "gcc" {
		t.Errorf("benchmark name = %q", base.Benchmark)
	}
}

func TestProtectionNames(t *testing.T) {
	if NoProtection.String() != "baseline" || Protection3DP.String() != "3DP" ||
		Protection3DPNoCache.String() != "3DP-no-cache" {
		t.Error("protection names wrong")
	}
	if Protection(9).String() != "Protection(9)" {
		t.Error("unknown protection name wrong")
	}
}

func TestMeasureParityCaching(t *testing.T) {
	b, _ := BenchmarkByName("lbm")
	r := MeasureParityCaching(context.Background(), b, 50000, 1)
	if r.ParityProbes == 0 {
		t.Fatal("no parity probes")
	}
	if hr := r.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestFunctionalControllerEndToEnd(t *testing.T) {
	ctl, err := NewController(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0xA5}, ctl.Config().LineBytes)
	if err := ctl.Write(3, line); err != nil {
		t.Fatal(err)
	}
	co := ctl.Config().CoordOfLineIndex(3)
	ctl.InjectFault(RowFault(co.Stack, co.Die, co.Bank, co.Row))
	got, err := ctl.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Error("data corrupted after row fault")
	}
	if ctl.Stats().Corrections == 0 {
		t.Error("no correction recorded")
	}
}

func TestFaultConstructors(t *testing.T) {
	cfg := DefaultConfig()
	rf := RowFault(0, 1, 2, 3)
	if rf.Class != FaultRow || !rf.Region.Row.Contains(3) || rf.Region.Row.Contains(4) {
		t.Error("RowFault wrong")
	}
	bf := BankFault(1, 2, 3)
	if bf.Class != FaultBank || bf.Region.Stack != 1 || !bf.Region.Row.Contains(12345) {
		t.Error("BankFault wrong")
	}
	wf := WordFault(0, 0, 0, 0, 130)
	if wf.Class != FaultWord || !wf.Region.Col.Contains(128) || wf.Region.Col.Contains(64) {
		t.Error("WordFault wrong")
	}
	df := DataTSVFault(cfg, 0, 1, 7)
	if df.Class != FaultDataTSV || !df.Region.Col.Contains(7) || !df.Region.Col.Contains(263) {
		t.Error("DataTSVFault wrong")
	}
	af := AddrTSVFault(0, 1, 4)
	if af.Class != FaultAddrTSV || !af.Region.Row.Contains(16) || af.Region.Row.Contains(8) {
		t.Error("AddrTSVFault wrong")
	}
}

func TestReliabilityOptionsEffectiveDefaults(t *testing.T) {
	// Pin the effective defaults promised by the ReliabilityOptions doc
	// comments: a zero-value options struct must actually simulate 100000
	// trials over 7 years with 12-hour scrubs on the Table-II geometry.
	d := ReliabilityOptions{}.withDefaults()
	if d.Trials != 100000 {
		t.Errorf("default Trials = %d, want 100000", d.Trials)
	}
	if d.LifetimeYears != 7 {
		t.Errorf("default LifetimeYears = %v, want 7", d.LifetimeYears)
	}
	if d.ScrubIntervalHours != 12 {
		t.Errorf("default ScrubIntervalHours = %v, want 12", d.ScrubIntervalHours)
	}
	if d.Config.Stacks != DefaultConfig().Stacks {
		t.Errorf("default Config = %+v", d.Config)
	}
	if d.Rates != Table1Rates() {
		t.Errorf("default Rates = %+v", d.Rates)
	}
	// Non-zero fields must pass through untouched.
	o := ReliabilityOptions{Trials: 5, LifetimeYears: 2, ScrubIntervalHours: 1}.withDefaults()
	if o.Trials != 5 || o.LifetimeYears != 2 || o.ScrubIntervalHours != 1 {
		t.Errorf("explicit options overwritten: %+v", o)
	}
}

func TestWorkersClampPropagates(t *testing.T) {
	// Negative worker counts used to fall through to the engine unclamped;
	// they must behave exactly like the GOMAXPROCS default, and since
	// every trial draws from its own stream, like any other worker count.
	rates := Table1Rates()
	rates.BankPermanent *= 50
	opts := ReliabilityOptions{Rates: rates, Trials: 2000, Seed: 9, Workers: -5}
	r := simulate(t, opts, Scheme3DP)
	if r.Trials != 2000 {
		t.Errorf("clamped run completed %d trials, want 2000", r.Trials)
	}
	if r.Partial {
		t.Error("clamped run spuriously partial")
	}
	one := opts
	one.Workers = 1
	if got := simulate(t, one, Scheme3DP); !reflect.DeepEqual(got, r) {
		t.Errorf("Workers=-5 (%s) != Workers=1 (%s)", r, got)
	}
}

func TestSimulateReliabilityContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r, err := Simulate(ctx, ReliabilityOptions{Trials: 4_000_000, Seed: 1}, SchemeNone)
	if err != nil {
		t.Fatalf("a cancelled run returned an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled simulation took %v", elapsed)
	}
	if !r.Partial {
		t.Fatal("cancelled simulation not marked Partial")
	}
	if r.Trials <= 0 || r.Trials >= 4_000_000 {
		t.Errorf("partial Trials = %d", r.Trials)
	}
}

// TestSimulateMaxIntTrials: a run of math.MaxInt64 trials runs until its
// deadline. The engine's worker count used to overflow rounding the
// trial count up to whole blocks, so the run started no worker and
// returned 0 trials with no reason given.
func TestSimulateMaxIntTrials(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r, err := Simulate(ctx, ReliabilityOptions{Trials: math.MaxInt64, Seed: 1}, Scheme1DP)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !r.Partial || r.Trials <= 0 {
		t.Errorf("got Partial %v over %d trials, want a partial run of some trials", r.Partial, r.Trials)
	}
}

// TestCompareReliabilityContextCancelled: comparing schemes under an
// already cancelled context, plain and adaptive, each Simulate returns
// at once an empty partial Result and no error.
func TestCompareReliabilityContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []ReliabilityOptions{
		{Trials: 10000, Seed: 1},
		{Trials: 10000, Seed: 1, TargetFailures: 5},
	} {
		for _, s := range []Scheme{SchemeNone, Scheme3DP} {
			r, err := Simulate(ctx, opts, s)
			if err != nil {
				t.Fatalf("%s (target %d): a cancelled run returned an error: %v", s, opts.TargetFailures, err)
			}
			if !r.Partial || r.Trials != 0 {
				t.Errorf("%s (target %d): not an empty partial: %+v", s, opts.TargetFailures, r)
			}
		}
	}
}

func TestSimulatePerformanceContextCancel(t *testing.T) {
	b, _ := BenchmarkByName("mcf")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	r := SimulatePerformance(ctx, b, PerfOptions{Requests: 50_000_000, Seed: 1})
	if !r.Partial {
		t.Fatal("cancelled performance run not marked Partial")
	}
	if r.RequestsDone <= 0 || r.RequestsDone >= 50_000_000 {
		t.Errorf("RequestsDone = %d", r.RequestsDone)
	}
}
