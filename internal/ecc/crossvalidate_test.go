package ecc

// Cross-validation of the capability models against real codecs. The
// Symbol8 predicates assume an RS(72,64)-style code corrects 4 unknown
// symbol errors or an 8-symbol known-position unit erasure; the
// BCH-6EC7ED predicate assumes 6 correctable bit errors per line. These
// tests confirm the Reed-Solomon and BCH decoders deliver exactly that.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bch"
	"repro/internal/reedsolomon"
	"repro/internal/stack"
)

func rs72(t *testing.T) *reedsolomon.Code {
	t.Helper()
	c, err := reedsolomon.New(72, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSymbolBudgetMatchesCodec(t *testing.T) {
	c := rs72(t)
	s := NewSymbol8(stack.DefaultConfig(), stack.SameBank)
	if s.SymbolBudget != c.CorrectableErrors() {
		t.Errorf("model budget %d != RS(72,64) capability %d",
			s.SymbolBudget, c.CorrectableErrors())
	}
}

func TestCodecCorrectsWithinBudget(t *testing.T) {
	c := rs72(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		nerr := 1 + rng.Intn(4) // within the model's budget
		for _, p := range rng.Perm(72)[:nerr] {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, _, err := c.Decode(cw)
		if err != nil {
			t.Fatalf("trial %d: %d errors uncorrectable (model says budget 4)", trial, nerr)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func TestCodecUnitErasureProperty(t *testing.T) {
	// The ChipKill property the striped predicates rely on: a whole
	// 8-symbol unit at a KNOWN position is correctable (8 erasures = n-k).
	c := rs72(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		cw, _ := c.Encode(data)
		unit := rng.Intn(9) // 9 units of 8 symbols
		erasures := make([]int, 8)
		for i := 0; i < 8; i++ {
			pos := unit*8 + i
			erasures[i] = pos
			cw[pos] = byte(rng.Intn(256))
		}
		got, _, err := c.DecodeErasures(cw, erasures)
		if err != nil {
			t.Fatalf("trial %d: unit %d erasure uncorrectable", trial, unit)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func TestCodecUnitErasurePlusErrorFails(t *testing.T) {
	// The failure rule behind pairFails: a full unit erasure plus even one
	// unknown error elsewhere exceeds 2e+f = 8.
	c := rs72(t)
	rng := rand.New(rand.NewSource(43))
	failures := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		orig, _ := c.Encode(data)
		cw := append([]byte(nil), orig...)
		erasures := make([]int, 8)
		for i := 0; i < 8; i++ {
			erasures[i] = i // unit 0
			cw[i] ^= byte(1 + rng.Intn(255))
		}
		// One unknown error in another unit.
		p := 8 + rng.Intn(64)
		cw[p] ^= byte(1 + rng.Intn(255))
		got, _, err := c.DecodeErasures(cw, erasures)
		if err != nil || !bytes.Equal(got, data) {
			failures++
		}
	}
	if failures < trials*9/10 {
		t.Errorf("unit erasure + 1 error decoded correctly in %d/%d trials (should almost always fail)",
			trials-failures, trials)
	}
}

func TestCodecDataTSVDamageCorrectable(t *testing.T) {
	// A data-TSV fault corrupts exactly 2 symbols per line (bits t and
	// t+256 live in different bytes); the model says that is always within
	// budget — confirm with the codec across every TSV position.
	c := rs72(t)
	cfg := stack.DefaultConfig()
	rng := rand.New(rand.NewSource(44))
	for tsv := 0; tsv < cfg.DataTSVs; tsv += 17 {
		data := make([]byte, 64)
		rng.Read(data)
		cw, _ := c.Encode(data)
		for _, bit := range cfg.BitsOnTSV(tsv) {
			cw[bit/8] ^= 1 << (bit % 8)
		}
		got, _, err := c.Decode(cw)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("TSV %d damage uncorrectable", tsv)
		}
	}
}

// TestBCHBudgetMatchesCodec backs the BCH-6EC7ED model with the BCH
// decoder: the model's per-line bit budget is the correction capability
// of BCH(1023,963), and a 512-bit line carried by that code (shortened:
// the unused leading data bits stay zero and are never transmitted)
// decodes every random error pattern of each weight up to the budget.
func TestBCHBudgetMatchesCodec(t *testing.T) {
	c, err := bch.New(10, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stack.DefaultConfig()
	model := NewBCH6EC7ED(cfg)
	if model.BitBudget != c.T() {
		t.Fatalf("model budget %d != BCH(%d,%d) capability %d", model.BitBudget, c.N(), c.K(), c.T())
	}
	pad := c.K() - cfg.LineBytes*8
	rng := rand.New(rand.NewSource(45))
	for weight := 1; weight <= model.BitBudget; weight++ {
		for trial := 0; trial < 20; trial++ {
			data := make([]bool, c.K())
			for i := pad; i < len(data); i++ {
				data[i] = rng.Intn(2) == 1
			}
			cw, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Errors land only on transmitted bits: the line and its parity.
			for _, p := range rng.Perm(c.N() - pad)[:weight] {
				cw[pad+p] = !cw[pad+p]
			}
			got, _, err := c.Decode(cw)
			if err != nil || !reflect.DeepEqual(got, data) {
				t.Fatalf("weight %d trial %d: %d bit errors not corrected (model says budget %d): %v",
					weight, trial, weight, model.BitBudget, err)
			}
		}
	}
}
