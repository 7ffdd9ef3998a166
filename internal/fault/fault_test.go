package fault

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/stack"
)

func TestScaleTo8GbReproducesTable1(t *testing.T) {
	scaled := ScaleTo8Gb(Sridharan1Gb())
	want := Table1()
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > want*0.02+0.01 {
			t.Errorf("%s: scaled = %.2f, Table I = %.2f", name, got, want)
		}
	}
	approx("bit transient", scaled.BitTransient, want.BitTransient)
	approx("bit permanent", scaled.BitPermanent, want.BitPermanent)
	approx("word transient", scaled.WordTransient, want.WordTransient)
	approx("word permanent", scaled.WordPermanent, want.WordPermanent)
	approx("column transient", scaled.ColumnTransient, want.ColumnTransient)
	approx("column permanent", scaled.ColumnPermanent, want.ColumnPermanent)
	approx("row transient", scaled.RowTransient, want.RowTransient)
	approx("row permanent", scaled.RowPermanent, want.RowPermanent)
	approx("bank transient", scaled.BankTransient, want.BankTransient)
	approx("bank permanent", scaled.BankPermanent, want.BankPermanent)
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		Bit: "bit", Word: "word", Column: "column", Row: "row",
		SubArray: "subarray", Bank: "bank", DataTSV: "data-tsv", AddrTSV: "addr-tsv",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if !DataTSV.IsTSV() || !AddrTSV.IsTSV() || Bank.IsTSV() {
		t.Error("IsTSV misclassifies")
	}
}

// poisson draws a Poisson variate as AppendWindow draws each class's
// count: nothing when limit < 0 (λ <= 0), otherwise Knuth's product from
// one Float64, which it consumes even when exp(−λ) rounds to 1.
func poisson(rng *rand.Rand, limit float64) int {
	if limit < 0 {
		return 0
	}
	return poissonFrom(rng, rng.Float64(), limit)
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lambda = 2.5
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, knuthLimit(lambda))
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.05 {
		t.Errorf("poisson mean = %.3f, want %.3f", mean, lambda)
	}
	if poisson(rng, knuthLimit(0)) != 0 {
		t.Error("poisson(0) != 0")
	}
	if poisson(rng, knuthLimit(-1)) != 0 {
		t.Error("poisson(-1) != 0")
	}
}

// splitWindows lists (start, span) windows in the order multilevel
// splitting asks for them: a whole lifetime, then lifetime suffixes that
// shrink as entrance times move later, with whole lifetimes in between.
func splitWindows() [][2]float64 {
	var ws [][2]float64
	for _, start := range []float64{0, 1000, 0, 17500.25, 30000, 0, 45000, 61000.5, 61000.5, 0} {
		ws = append(ws, [2]float64{start, LifetimeHours - start})
	}
	return ws
}

// drawWindow draws one window from a fresh rng seeded seed and returns the
// faults and the rng's next value, which differs if the draw consumed
// different randomness.
func drawWindow(s *Sampler, seed int64, w [2]float64) ([]Fault, uint64) {
	rng := rand.New(rand.NewSource(seed))
	fs := s.AppendWindow(rng, w[0], w[1], nil)
	return fs, rng.Uint64()
}

// TestSamplerThresholdsFollowSpan checks the sampler's per-span threshold
// cache: one Sampler alternating whole lifetimes with shrinking windows,
// as splitting does, draws exactly what a fresh Sampler draws for each
// (seed, span), and allocates nothing once its buffer has grown.
func TestSamplerThresholdsFollowSpan(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := Table1().WithTSV(1430).BiasLarge(20)
	shared := NewSampler(cfg, rates)
	drawn := 0
	for i, w := range splitWindows() {
		got, gotNext := drawWindow(shared, int64(i), w)
		want, wantNext := drawWindow(NewSampler(cfg, rates), int64(i), w)
		if !slices.Equal(got, want) || gotNext != wantNext {
			t.Fatalf("window %v (seed %d): shared sampler drew %v, fresh sampler %v", w, i, got, want)
		}
		drawn += len(got)
	}
	if drawn == 0 {
		t.Fatal("no window drew a fault; raise the rates")
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]Fault, 0, 256)
	windows := splitWindows()[:4]
	alternate := func() {
		for _, w := range windows {
			if w[0] == 0 {
				buf = shared.AppendLifetime(rng, w[1], buf[:0])
			} else {
				buf = shared.AppendWindow(rng, w[0], w[1], buf[:0])
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, alternate); allocs != 0 {
		t.Errorf("alternating spans allocate %.2f per run, want 0", allocs)
	}
}

// TestSamplerSharedAcrossGoroutines draws windows of changing spans from
// one Sampler on several goroutines at once; each draw must match a fresh
// Sampler's. Run it under -race.
func TestSamplerSharedAcrossGoroutines(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := Table1().WithTSV(1430).BiasLarge(20)
	windows := splitWindows()
	want := make([][]Fault, len(windows))
	for i, w := range windows {
		want[i], _ = drawWindow(NewSampler(cfg, rates), int64(i), w)
	}
	shared := NewSampler(cfg, rates)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(windows)
				if got, _ := drawWindow(shared, int64(i), windows[i]); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d, window %v: drew %v, want %v", g, windows[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSamplerDrawsWhenLimitRoundsToOne pins the RNG use of a rate so small
// that exp(−λ) rounds to 1: the draw still consumes one Float64, as it
// always has, so every later draw of the lifetime stays where it was. An
// empty window (λ = 0) consumes nothing.
func TestSamplerDrawsWhenLimitRoundsToOne(t *testing.T) {
	cfg := stack.DefaultConfig()
	const rate, span = 1e-9, 1.0
	lambda := rate * 1e-9 * span * float64(cfg.Stacks*(cfg.DataDies+cfg.ECCDies))
	if lambda <= 0 || math.Exp(-lambda) != 1 {
		t.Fatalf("λ = %g: exp(−λ) = %v, want exactly 1 for this test", lambda, math.Exp(-lambda))
	}
	s := NewSampler(cfg, Rates{BitTransient: rate, SubArrayRows: 5200})
	rng, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	if fs := s.AppendWindow(rng, 0, span, nil); len(fs) != 0 {
		t.Fatalf("drew %v at λ = %g", fs, lambda)
	}
	ref.Float64()
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("a draw with λ > 0 and exp(−λ) == 1 did not consume exactly one Float64")
	}
	if fs := s.AppendWindow(rng, 0, 0, nil); len(fs) != 0 {
		t.Fatalf("empty window drew %v", fs)
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("an empty window consumed randomness")
	}
}

// TestCheckMeansBound: CheckMeans accepts a draw whose Knuth threshold
// exp(−λ) is a normal float64 and rejects one past it, naming the class
// and its rate; and a Poisson draw with a mean past the bound, where the
// threshold is 0, counts far fewer events than its mean.
func TestCheckMeansBound(t *testing.T) {
	cfg := stack.DefaultConfig()
	const rate = 1e9 // FIT per die
	dies := float64(cfg.Stacks * cfg.DataDies)
	s := NewSampler(cfg, Rates{TSVPerDie: rate})
	spanFor := func(lambda float64) float64 { return lambda / (rate * 1e-9 * dies) }
	if err := s.CheckMeans(spanFor(708)); err != nil {
		t.Errorf("λ = 708 rejected: %v", err)
	}
	err := s.CheckMeans(spanFor(709))
	if err == nil || !strings.Contains(err.Error(), "TSV faults at 1e+09 FIT") {
		t.Errorf("λ = 709: got %v, want an error naming TSV faults at 1e+09 FIT", err)
	}
	if err := NewSampler(cfg, Rates{BankPermanent: rate}).CheckMeans(spanFor(2000)); err == nil ||
		!strings.Contains(err.Error(), "permanent bank faults") {
		t.Errorf("a permanent bank mean of ~2000: got %v, want an error naming permanent bank faults", err)
	}
	rng := rand.New(rand.NewSource(1))
	if n := poisson(rng, knuthLimit(2000)); n > 1000 {
		t.Errorf("a Poisson(2000) draw against a zero threshold counted %d; the bound no longer guards anything", n)
	}
}

func TestSampleLifetimeEventRate(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := Table1()
	s := NewSampler(cfg, rates)
	rng := rand.New(rand.NewSource(12))
	const trials = 3000
	total := 0
	for i := 0; i < trials; i++ {
		total += len(s.SampleLifetime(rng, LifetimeHours))
	}
	// Expected events per lifetime: rate_sum * 1e-9 * hours * dies.
	perDie := rates.TotalPerDie()
	wantMean := perDie * 1e-9 * LifetimeHours * float64(cfg.Stacks*(cfg.DataDies+cfg.ECCDies))
	gotMean := float64(total) / trials
	if math.Abs(gotMean-wantMean) > wantMean*0.1 {
		t.Errorf("mean events/lifetime = %.3f, want ~%.3f", gotMean, wantMean)
	}
}

func TestSampleLifetimeSorted(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSampler(cfg, Table1().WithTSV(5000)) // high rate to get many events
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		fs := s.SampleLifetime(rng, LifetimeHours)
		for i := 1; i < len(fs); i++ {
			if fs[i].Hours < fs[i-1].Hours {
				t.Fatalf("faults not sorted: %v after %v", fs[i], fs[i-1])
			}
		}
		for _, f := range fs {
			if f.Hours < 0 || f.Hours > LifetimeHours {
				t.Fatalf("fault time out of range: %v", f)
			}
		}
	}
}

func TestTSVSplit(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSampler(cfg, Rates{TSVPerDie: 1e6, SubArrayRows: 5200})
	rng := rand.New(rand.NewSource(14))
	data, addr := 0, 0
	for trial := 0; trial < 50; trial++ {
		for _, f := range s.SampleLifetime(rng, LifetimeHours) {
			switch f.Class {
			case DataTSV:
				data++
			case AddrTSV:
				addr++
			default:
				t.Fatalf("unexpected class %v with only TSV rate set", f.Class)
			}
			if f.Persistence != Permanent {
				t.Fatal("TSV fault not permanent")
			}
		}
	}
	if data == 0 || addr == 0 {
		t.Fatalf("TSV split degenerate: data=%d addr=%d", data, addr)
	}
	ratio := float64(data) / float64(data+addr)
	want := float64(cfg.DataTSVs) / float64(cfg.DataTSVs+cfg.AddrTSVs)
	if math.Abs(ratio-want) > 0.05 {
		t.Errorf("data TSV fraction = %.3f, want ~%.3f", ratio, want)
	}
}

func TestFootprintShapes(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSampler(cfg, Table1().WithTSV(100))
	rng := rand.New(rand.NewSource(15))
	rowBits := uint32(cfg.RowBytes * 8)
	for trial := 0; trial < 5000; trial++ {
		var classes = []Class{Bit, Word, Column, Row, SubArray, Bank, DataTSV, AddrTSV}
		c := classes[rng.Intn(len(classes))]
		var f Fault
		s.place(rng, &f, c, Permanent)
		rows := f.Region.Row.CountBelow(uint32(cfg.RowsPerBank))
		cols := f.Region.Col.CountBelow(rowBits)
		switch c {
		case Bit:
			if rows != 1 || cols != 1 {
				t.Fatalf("bit fault covers %d rows x %d cols", rows, cols)
			}
		case Word:
			if rows != 1 || cols != 64 {
				t.Fatalf("word fault covers %d rows x %d cols", rows, cols)
			}
		case Column:
			if rows != 5200 || cols != 1 {
				t.Fatalf("column fault covers %d rows x %d cols", rows, cols)
			}
		case Row:
			if rows != 1 || cols != int(rowBits) {
				t.Fatalf("row fault covers %d rows x %d cols", rows, cols)
			}
		case SubArray:
			if rows != 5200 || cols != int(rowBits) {
				t.Fatalf("subarray fault covers %d rows x %d cols", rows, cols)
			}
		case Bank:
			if rows != cfg.RowsPerBank || cols != int(rowBits) {
				t.Fatalf("bank fault covers %d rows x %d cols", rows, cols)
			}
		case DataTSV:
			// 2 bits per 512-bit line, 32 lines per row: 64 bit-columns.
			if rows != cfg.RowsPerBank || cols != cfg.LinesPerRow()*cfg.BitsPerTSVPerLine() {
				t.Fatalf("data-TSV fault covers %d rows x %d cols", rows, cols)
			}
			// Must cover all banks of the die.
			if f.Region.Bank.Mask != 0 {
				t.Fatal("data-TSV fault not channel-wide")
			}
		case AddrTSV:
			if rows != cfg.RowsPerBank/2 {
				t.Fatalf("addr-TSV fault covers %d rows, want half", rows)
			}
			if f.Region.Bank.Mask != 0 {
				t.Fatal("addr-TSV fault not channel-wide")
			}
		}
	}
}

func TestRowsNeedingSparing(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSampler(cfg, Table1())
	rng := rand.New(rand.NewSource(16))
	var f Fault
	s.place(rng, &f, Bank, Permanent)
	if got := f.RowsNeedingSparing(cfg); got != 65536 {
		t.Errorf("bank fault needs %d rows, want 65536", got)
	}
	f = Fault{}
	s.place(rng, &f, Bit, Permanent)
	if got := f.RowsNeedingSparing(cfg); got != 1 {
		t.Errorf("bit fault needs %d rows, want 1", got)
	}
}

func TestPersistenceString(t *testing.T) {
	if Transient.String() != "transient" || Permanent.String() != "permanent" {
		t.Error("Persistence.String wrong")
	}
}

func TestWithTSVDoesNotMutate(t *testing.T) {
	r := Table1()
	r2 := r.WithTSV(1430)
	if r.TSVPerDie != 0 {
		t.Error("WithTSV mutated receiver")
	}
	if r2.TSVPerDie != 1430 {
		t.Error("WithTSV did not set rate")
	}
}

func TestRatesJSONRoundTrip(t *testing.T) {
	r := Table1().WithTSV(143)
	data, err := MarshalRates(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadRates(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip changed rates:\n%+v\n%+v", back, r)
	}
}

func TestReadRatesValidation(t *testing.T) {
	cases := []string{
		`{"BitTransient": -1}`,
		`{"SubArrayFraction": 2}`,
		`{"SubArrayRows": -5}`,
		`{"NoSuchField": 1}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadRates(strings.NewReader(c)); err == nil {
			t.Errorf("accepted bad rates %q", c)
		}
	}
}

func TestReadRatesDefaultsSubArrayRows(t *testing.T) {
	r, err := ReadRates(strings.NewReader(`{"BitTransient": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.SubArrayRows != 5200 {
		t.Errorf("SubArrayRows = %d, want 5200 default", r.SubArrayRows)
	}
}

func TestLoadRatesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rates.json")
	data, _ := MarshalRates(Table1())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRates(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.BitTransient != 113.6 {
		t.Errorf("loaded BitTransient = %v", r.BitTransient)
	}
	if _, err := LoadRates(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestScalePerDoubling(t *testing.T) {
	r := Table1()
	// Three doublings reproduce the full 1Gb->8Gb rule set applied again:
	// bits x8, rows x4, columns x1.9, banks x8.
	s3 := ScalePerDoubling(r, 3)
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > want*0.01 {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
	approx("bit", s3.BitTransient, 8*r.BitTransient)
	approx("row", s3.RowPermanent, 4*r.RowPermanent)
	approx("column", s3.ColumnPermanent, 1.9*r.ColumnPermanent)
	approx("bank", s3.BankPermanent, 8*r.BankPermanent)
	// Zero doublings is the identity.
	if ScalePerDoubling(r, 0) != r {
		t.Error("zero doublings changed rates")
	}
}

// TestSortByTimeStable checks sortByTime against sort.SliceStable on
// windows of every shape: empty, one fault, the handful a realistic
// lifetime draws, and hundreds. Hours are drawn from a few values so that
// ties are common: faults with equal Hours must keep their draw order.
func TestSortByTimeStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 5, 9, 40, 300} {
		for rep := 0; rep < 50; rep++ {
			fs := make([]Fault, n)
			for i := range fs {
				fs[i].TSV = i // the draw order
				fs[i].Hours = float64(rng.Intn(n/4 + 2))
			}
			want := slices.Clone(fs)
			sort.SliceStable(want, func(a, b int) bool { return want[a].Hours < want[b].Hours })
			sortByTime(fs)
			if !slices.Equal(fs, want) {
				t.Fatalf("%d faults: sortByTime gave %v, sort.SliceStable %v", n, fs, want)
			}
		}
	}
}
