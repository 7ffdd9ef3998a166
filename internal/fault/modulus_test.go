package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stack"
)

// oddConfig is a geometry that stack.Config.Validate accepts and whose
// stack, die, bank, row, row-bit, word, sub-array and TSV counts are not
// powers of two, so every modulus the sampler builds for it divides.
func oddConfig() stack.Config {
	return stack.Config{
		Stacks:      3,
		DataDies:    6,
		ECCDies:     1,
		BanksPerDie: 6,
		RowsPerBank: 40000,
		RowBytes:    1536,
		LineBytes:   64,
		DataTSVs:    128,
		AddrTSVs:    20,
		BurstLength: 4,
	}
}

// samplerRanges returns the range of every modulus field of s.
func samplerRanges(s *Sampler) map[string]int {
	out := make(map[string]int)
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Type() == reflect.TypeOf(modulus{}) {
			out[v.Type().Field(i).Name] = int(v.Field(i).FieldByName("n").Int())
		}
	}
	return out
}

// scriptSource replays fixed Int63 values, then a seeded stream, and
// counts the values it has handed out.
type scriptSource struct {
	script []int64
	rest   rand.Source
	used   int
}

func (s *scriptSource) Int63() int64 {
	s.used++
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptSource) Seed(seed int64) { s.rest.Seed(seed) }

// checkIntn draws k values of [0, n) through a modulus and through
// rand.Intn from sources that hand out the same script and then the same
// seeded stream. The values must be equal, and so must the number of
// Int63 values each consumed.
func checkIntn(t *testing.T, n int, seed int64, script []int64, k int) {
	t.Helper()
	gotSrc := &scriptSource{script: script, rest: rand.NewSource(seed)}
	wantSrc := &scriptSource{script: script, rest: rand.NewSource(seed)}
	got, want := rand.New(gotSrc), rand.New(wantSrc)
	m := newModulus(n)
	for i := 0; i < k; i++ {
		if g, w := m.intn(got), want.Intn(n); g != w {
			t.Fatalf("n = %d, seed %d, draw %d: modulus drew %d, rand.Intn %d", n, seed, i, g, w)
		}
		if gotSrc.used != wantSrc.used {
			t.Fatalf("n = %d, seed %d, draw %d: modulus consumed %d Int63 values, rand.Intn %d",
				n, seed, i, gotSrc.used, wantSrc.used)
		}
	}
}

// boundaryScript returns Int63 values whose 31-bit draws sit at Int31n's
// edges for n: the largest accepted value, the smallest rejected one,
// the largest possible one, and 0, so a modulus that mishandles the bound
// draws a different value or consumes a different count.
func boundaryScript(n int) []int64 {
	bound := int64(1<<31 - 1 - (1<<31)%uint64(n))
	var script []int64
	for _, v := range []int64{bound + 1, bound, 1<<31 - 1, 0, bound - 1} {
		if v >= 0 && v < 1<<31 {
			script = append(script, v<<32|0x5a5a5a5a)
		}
	}
	return script
}

// TestIntnMatchesMathRand checks the division-free draw against
// rand.Intn over every range a DefaultConfig sampler and an oddConfig
// sampler draw from, the power-of-two and one-value ranges, and three
// ranges at the 31-bit edge: 2^30+1, where Int31n rejects almost half of
// its draws; 3·2^29, where it rejects a quarter; and 2^31−1, the largest
// range Int31n serves. Ranges of 2^31 and more go to rand.Intn itself.
func TestIntnMatchesMathRand(t *testing.T) {
	ranges := map[int]bool{1: true, 2: true, 3: true, 7: true, 1 << 16: true,
		1<<30 + 1: true, 3 << 29: true, 1<<31 - 1: true, 1 << 31: true, 1<<40 + 3: true}
	for _, cfg := range []stack.Config{stack.DefaultConfig(), oddConfig()} {
		for name, n := range samplerRanges(NewSampler(cfg, Table1())) {
			if n <= 0 {
				t.Fatalf("%+v: range %s is %d", cfg, name, n)
			}
			ranges[n] = true
		}
	}
	for n := range ranges {
		for seed := int64(0); seed < 200; seed++ {
			checkIntn(t, n, seed, nil, 20)
		}
		if n <= math.MaxInt32 {
			checkIntn(t, n, 1, boundaryScript(n), 10)
		}
	}
}

// FuzzIntnMatchesMathRand checks the division-free draw against
// rand.Intn for arbitrary ranges and seeds. A range rand.Intn rejects
// must make the draw panic, and newModulus must accept it.
func FuzzIntnMatchesMathRand(f *testing.F) {
	for _, n := range []int64{1, 2, 3, 5200, 1<<30 + 1, 3 << 29, 1<<31 - 1, 1 << 31, 0, -1} {
		f.Add(n, int64(1))
	}
	f.Fuzz(func(t *testing.T, n, seed int64) {
		if n <= 0 {
			m := newModulus(int(n))
			defer func() {
				if recover() == nil {
					t.Fatalf("n = %d: the draw did not panic", n)
				}
			}()
			m.intn(rand.New(rand.NewSource(seed)))
			return
		}
		checkIntn(t, int(n), seed, nil, 8)
		if n <= math.MaxInt32 {
			checkIntn(t, int(n), seed, boundaryScript(int(n)), 6)
		}
	})
}

// TestNewSamplerAcceptsEdgeGeometries builds samplers for geometries
// stack.Config.Validate accepts at its edges: one-row banks, which leave
// no row-address bit for an address-TSV fault, and rows under a word,
// which hold no word for a word fault. NewSampler must not panic, and a
// draw from such an empty range panics as rand.Intn(0) does.
func TestNewSamplerAcceptsEdgeGeometries(t *testing.T) {
	tiny := stack.Config{
		Stacks: 1, DataDies: 1, BanksPerDie: 1, RowsPerBank: 1,
		RowBytes: 1, LineBytes: 1, DataTSVs: 8, AddrTSVs: 1, BurstLength: 1,
	}
	huge := stack.DefaultConfig()
	huge.RowsPerBank = 1<<62 + 1
	for _, cfg := range []stack.Config{tiny, huge} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		NewSampler(cfg, Table1().WithTSV(1430))
	}
	s := NewSampler(tiny, Table1())
	for name, m := range map[string]modulus{"words": s.words, "rowAddrBits": s.rowAddrBits} {
		func() {
			defer func() {
				if r := recover(); r != "invalid argument to Intn" {
					t.Errorf("%s: draw from an empty range recovered %v, want rand.Intn's panic", name, r)
				}
			}()
			m.intn(rand.New(rand.NewSource(1)))
		}()
	}
}
