package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins the cut points to Python's
// statistics.quantiles(xs, n=4), which computes the spreads of the
// benchmark's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g (ok %v), want %g %g %g", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

// TestPercentileBeyondRule checks that p90 is reportable only with at
// least ten samples beyond it, and that it counts them exactly.
func TestPercentileBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100, 90, true},  // exactly 10 beyond
		{99, 90, false},  // 9 beyond
		{200, 180, true}, // 20 beyond
		{1, 1, false},
	} {
		got, ok := percentile(seq(tc.n), 90)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p90 of 1..%d = %g (ok %v), want %g (ok %v)", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// Ties at the percentile do not count as beyond it.
	xs := seq(100)
	for i := range xs {
		if xs[i] > 85 {
			xs[i] = 90
		}
	}
	if _, ok := percentile(xs, 90); ok {
		t.Error("samples equal to p90 were counted beyond it")
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Error("error rate with no attempts should be 0")
	}
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail(failTransport, "reset")
	tl.fail(failShed, "429")
	tl.fail(failJob, "partial")
	a, f := tl.counts()
	if a != 10 || f != 3 || tl.errorRate() != 0.3 {
		t.Errorf("attempted %d failed %d rate %g, want 10 3 0.3", a, f, tl.errorRate())
	}
	if tl.failed[failShed] != 1 || len(tl.first) != 3 {
		t.Errorf("failures by kind %v, first %v", tl.failed, tl.first)
	}
}

func TestPoissonInterval(t *testing.T) {
	lo, hi := poissonInterval(0, 1e-4)
	if lo != 0 || hi != 0 {
		t.Errorf("interval at lambda 0 = [%g, %g], want [0, 0]", lo, hi)
	}
	// Poisson(10): P(X <= 0) = 4.5e-5 < 5e-5 <= P(X <= 1) = 5.0e-4, and
	// P(X >= 24) = 1.2e-4 > 5e-5 > P(X >= 25) = 4.7e-5.
	lo, hi = poissonInterval(10, 1e-4)
	if lo != 1 || hi != 24 {
		t.Errorf("interval at lambda 10 = [%g, %g], want [1, 24]", lo, hi)
	}
}
