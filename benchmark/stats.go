package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minBeyond is how many samples must lie above the highest percentile a
// timing reports: a p90 needs at least 100 samples, a p99 1000.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this program prints match the ones computed from its output
// elsewhere. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		cut[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2], true
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure BENCHMARK.json bounds are set against.
func spread(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie beyond it — the rule for the highest
// percentile a timing may report. With 100 distinct samples, p90 is the
// 90th smallest and exactly 10 samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	v = s[rank-1]
	beyond := 0
	for _, x := range s[rank:] {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyond
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0: per-layer ratios of a layer
// that did no work read 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Failure kinds counted against the operations a workload attempts.
const (
	failTransport = "transport" // connection or protocol error
	failStatus    = "status"    // an HTTP status the operation does not expect
	failShed      = "shed"      // 429: the server refused the work
	failJob       = "job"       // a job or repetition that failed, was cancelled or came back partial
)

// tally counts attempted operations and their failures by kind; error
// rate is failures ÷ attempts. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    map[string]int
	first     []string // the first few failure messages, for the report
}

// ok records one operation that succeeded.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one operation that failed with the given kind.
func (t *tally) fail(kind, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if t.failed == nil {
		t.failed = make(map[string]int)
	}
	t.failed[kind]++
	if len(t.first) < 5 {
		t.first = append(t.first, kind+": "+fmt.Sprintf(format, args...))
	}
}

// counts returns attempts and total failures.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.failed {
		failed += n
	}
	return t.attempted, failed
}

// errorRate returns failures ÷ attempts (0 with no attempts).
func (t *tally) errorRate() float64 {
	a, f := t.counts()
	return ratio(float64(f), float64(a))
}
