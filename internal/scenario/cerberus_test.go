package scenario

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

func buildCerberus(t *testing.T, p Params) *cerberusPredicate {
	t.Helper()
	pol, err := BuildScheme(cerberusSchemeName, stack.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pol.Predicate.(*cerberusPredicate)
}

// bitFault places a die-exact single-bit fault at one column.
func bitFault(die, bank, row, col uint32) fault.Fault {
	return fault.Fault{
		Class: fault.Bit,
		Region: fault.Region{
			Die:  fault.ExactPattern(die),
			Bank: fault.ExactPattern(bank),
			Row:  fault.ExactPattern(row),
			Col:  fault.ExactPattern(col),
		},
	}
}

func TestCerberusBuildValidation(t *testing.T) {
	for _, bad := range []float64{0, -128, 100, 1 << 20} {
		if _, err := BuildScheme(cerberusSchemeName, stack.DefaultConfig(), Params{"ondieWordBits": bad}); err == nil {
			t.Errorf("ondieWordBits=%g: expected error", bad)
		}
	}
	if _, err := BuildScheme(cerberusSchemeName, stack.DefaultConfig(), Params{"ondieWordBits": 64}); err != nil {
		t.Errorf("ondieWordBits=64: %v", err)
	}
}

func TestCerberusLoneBitsAbsorbed(t *testing.T) {
	pred := buildCerberus(t, nil)
	// Lone bit errors — even many, even across dies at the same striped
	// line — are each alone in their on-die codeword, so the on-die SEC
	// absorbs them all.
	live := []fault.Fault{
		bitFault(0, 1, 5, 3),
		bitFault(1, 1, 5, 3),
		bitFault(2, 1, 5, 3),
		bitFault(3, 1, 5, 3),
		bitFault(4, 1, 5, 3),
		bitFault(0, 1, 9, 200), // different row, same die
	}
	if pred.Uncorrectable(live) {
		t.Fatal("lone bit faults should all be absorbed on-die")
	}
}

func TestCerberusCodewordGeometry(t *testing.T) {
	pred := buildCerberus(t, nil)
	// Columns 3 and 100 share the [0,128) codeword; 130 does not.
	a := bitFault(0, 1, 5, 3)
	b := bitFault(0, 1, 5, 100)
	c := bitFault(0, 1, 5, 130)
	start, ok := pred.codewordStart(a.Region.Col)
	if !ok || start != 0 {
		t.Fatalf("codewordStart(3) = (%d, %t), want (0, true)", start, ok)
	}
	if !pred.sharesCodeword([]fault.Fault{a, b}, 0, start) {
		t.Fatal("cols 3 and 100 should share the 128-bit codeword")
	}
	if pred.sharesCodeword([]fault.Fault{a, c}, 0, start) {
		t.Fatal("cols 3 and 130 are in different codewords")
	}
	// Different dies never share an on-die codeword.
	d := bitFault(1, 1, 5, 5)
	if pred.sharesCodeword([]fault.Fault{a, d}, 0, start) {
		t.Fatal("different dies should not share a codeword")
	}
}

// handTransform replicates the documented cross-layer rules so the
// predicate's composed verdict can be checked against feeding the inner
// rank-level code the transformed set directly.
func handTransform(pred *cerberusPredicate, live []fault.Fault) []fault.Fault {
	var out []fault.Fault
	for i, f := range live {
		if f.Class != fault.Bit {
			out = append(out, f)
			continue
		}
		start, ok := pred.codewordStart(f.Region.Col)
		if !ok {
			out = append(out, f)
			continue
		}
		if !pred.sharesCodeword(live, i, start) {
			continue
		}
		g := f
		g.Class = fault.Word
		g.Region.Col = fault.MaskPattern(^(pred.wordBits - 1), start)
		out = append(out, g)
	}
	return out
}

func TestCerberusComposesWithRankCode(t *testing.T) {
	pred := buildCerberus(t, nil)
	bank := fault.Fault{
		Class: fault.Bank,
		Region: fault.Region{
			Die:  fault.ExactPattern(2),
			Bank: fault.ExactPattern(1),
			Row:  fault.AllPattern(),
			Col:  fault.AllPattern(),
		},
	}
	cases := [][]fault.Fault{
		// Pass-through: no bit faults at all.
		{bank},
		// Escalation: two bits colliding in one codeword.
		{bitFault(0, 1, 5, 3), bitFault(0, 1, 5, 100)},
		// Mixed: a bit colliding with a bank-wide footprint escalates,
		// a lone bit elsewhere is absorbed.
		{bitFault(2, 1, 5, 3), bank, bitFault(0, 3, 9, 7)},
		// Collision via a row fault in the same die/bank/row.
		{bitFault(1, 0, 17, 300), exactFault(1, 0, 17)},
	}
	for i, live := range cases {
		got := pred.Uncorrectable(live)
		want := false
		if tr := handTransform(pred, live); len(tr) > 0 {
			want = pred.inner.Uncorrectable(tr)
		}
		if got != want {
			t.Errorf("case %d: composed verdict %t, inner-on-transformed %t", i, got, want)
		}
	}
	// And the escalation must be observable: a bit colliding with a row
	// fault must matter more than the row fault alone at least once in
	// the transform (the escalated Word is present).
	tr := handTransform(pred, cases[3])
	if len(tr) != 2 || tr[0].Class != fault.Word {
		t.Fatalf("expected escalated Word + Row, got %+v", tr)
	}
}

// hiddenBegin hides a predicate's own incremental state, so ecc.Begin
// falls back to asking Uncorrectable about the whole live set after
// every change: the batch oracle.
type hiddenBegin struct{ ecc.Predicate }

// cerberusPool returns faults the sampler draws at 20x Table I rates
// with TSV faults, plus bit faults that share on-die codewords with each
// other and with a row and a bank fault, so the transform absorbs,
// escalates and passes faults through.
func cerberusPool(rng *rand.Rand) []fault.Fault {
	s := fault.NewSampler(stack.DefaultConfig(), scaleRates(fault.Table1(), 20).WithTSV(1430))
	var pool []fault.Fault
	for len(pool) < 40 {
		pool = s.AppendLifetime(rng, lifetimeHours, pool)
	}
	bank := fault.Fault{Class: fault.Bank, Persistence: fault.Permanent, Region: fault.Region{
		Die: fault.ExactPattern(2), Bank: fault.ExactPattern(1), Row: fault.AllPattern(), Col: fault.AllPattern(),
	}}
	return append(pool[:40],
		bitFault(0, 1, 5, 3), bitFault(0, 1, 5, 100), bitFault(0, 1, 5, 130),
		bitFault(1, 0, 17, 300), exactFault(1, 0, 17),
		bitFault(2, 1, 9, 7), bank, bitFault(0, 3, 9, 7))
}

// scaleRates multiplies every class rate by k.
func scaleRates(r fault.Rates, k float64) fault.Rates {
	for _, p := range []*float64{
		&r.BitTransient, &r.BitPermanent, &r.WordTransient, &r.WordPermanent,
		&r.ColumnTransient, &r.ColumnPermanent, &r.RowTransient, &r.RowPermanent,
		&r.BankTransient, &r.BankPermanent,
	} {
		*p *= k
	}
	return r
}

// TestCerberusIncrementalMatchesBatch replays random add/remove
// schedules, which re-add live faults and remove absent ones, through
// the predicate's own state and through the hidden-Begin batch oracle,
// and checks every verdict of both against Uncorrectable on the same
// multiset.
func TestCerberusIncrementalMatchesBatch(t *testing.T) {
	pred := buildCerberus(t, nil)
	rng := rand.New(rand.NewSource(27))
	pool := cerberusPool(rng)
	st, oracle := ecc.Begin(pred), ecc.Begin(hiddenBegin{pred})
	if _, ok := st.(*cerberusState); !ok {
		t.Fatalf("ecc.Begin returned %T, want the predicate's own state", st)
	}
	verdicts := [2]int{}
	for seq := 0; seq < 300; seq++ {
		st.Reset()
		oracle.Reset()
		var cur []fault.Fault
		for step := 0; step < 2+rng.Intn(14); step++ {
			var got, want bool
			switch op := rng.Intn(6); {
			case op == 0 && len(cur) > 0:
				i := rng.Intn(len(cur))
				f := cur[i]
				cur = append(cur[:i], cur[i+1:]...)
				got, want = st.Remove(f), oracle.Remove(f)
			case op == 1:
				f := pool[rng.Intn(len(pool))]
				if slices.Contains(cur, f) {
					continue
				}
				got, want = st.Remove(f), oracle.Remove(f)
			default:
				f := pool[rng.Intn(len(pool))]
				cur = append(cur, f)
				got, want = st.Add(f), oracle.Add(f)
			}
			batch := pred.Uncorrectable(cur)
			if got != want || want != batch || st.Uncorrectable() != got {
				t.Fatalf("sequence %d step %d: state %t (Uncorrectable %t), oracle %t, batch %t\nlive: %v",
					seq, step, got, st.Uncorrectable(), want, batch, cur)
			}
			if got {
				verdicts[1]++
			} else {
				verdicts[0]++
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (correctable, uncorrectable) = %v: the schedules never reach one side", verdicts)
	}
}

// TestCerberusEngineMatchesBatch runs the engine with the predicate's own
// state and with the hidden-Begin oracle at 20x Table I rates and
// 1430 FIT of TSV faults; the Results must be identical.
func TestCerberusEngineMatchesBatch(t *testing.T) {
	cfg := stack.DefaultConfig()
	pol, err := BuildScheme(cerberusSchemeName, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := faultsim.Options{
		Config: cfg, Rates: scaleRates(fault.Table1(), 20).WithTSV(1430),
		Trials: 3000, Seed: 27, Workers: 2,
	}
	inc := faultsim.RunContext(context.Background(), opt, pol)
	pol.Predicate = hiddenBegin{pol.Predicate}
	batch := faultsim.RunContext(context.Background(), opt, pol)
	if !reflect.DeepEqual(inc, batch) {
		t.Fatalf("incremental and batch engines disagree:\nincremental: %+v\nbatch:       %+v", inc, batch)
	}
	if inc.Failures == 0 || inc.Failures == inc.Trials {
		t.Fatalf("%d failures in %d trials: the comparison sees only one verdict", inc.Failures, inc.Trials)
	}
}

// TestCerberusStateAllocFree checks that the engine's state for the
// predicate allocates nothing once warm, over a replay whose transform
// absorbs and escalates bit faults.
func TestCerberusStateAllocFree(t *testing.T) {
	pred := buildCerberus(t, nil)
	pool := cerberusPool(rand.New(rand.NewSource(5)))
	st := ecc.Begin(pred)
	replay := func() {
		st.Reset()
		for _, f := range pool {
			st.Add(f)
		}
		for i := len(pool) - 1; i >= 0; i-- {
			st.Remove(pool[i])
		}
	}
	replay()
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("steady-state replay allocates %.1f per run, want 0", allocs)
	}
}
