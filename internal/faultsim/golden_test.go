package faultsim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Golden regression tests: fixed-seed runs whose full Result statistics
// (failure counts, by-year curve, proximate-cause tally) are pinned. The
// incremental evaluator and the batch oracle must both reproduce them
// bit for bit — any drift here means an optimization changed the
// statistics, not just the speed. The runs take the default worker count:
// every trial draws from its own stream, so the values hold on any host
// (make determinism reruns them at GOMAXPROCS 1 and 4).

type goldenCase struct {
	name string
	pol  func(cfg stack.Config) Policy
	// opt knobs
	trials    int
	rateScale float64
	tsvFIT    float64

	wantFailures int
	wantByYear   []int
	wantCauses   map[string]int
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "3DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
			},
			trials: 3000, rateScale: 30, tsvFIT: 0,
			wantFailures: 2074,
			wantByYear:   []int{120, 387, 745, 1101, 1479, 1824, 2074},
			wantCauses: map[string]int{
				"bank": 1543, "bit": 12, "column": 221, "row": 13, "subarray": 283, "word": 2,
			},
		},
		{
			name: "Citadel-3DP-DDS-swap",
			pol: func(cfg stack.Config) Policy {
				return Policy{
					Name:       "Citadel",
					Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
					UseTSVSwap: true,
					NewSparer:  ddsSparer,
				}
			},
			trials: 3000, rateScale: 30, tsvFIT: 1430,
			wantFailures: 365,
			wantByYear:   []int{2, 8, 21, 68, 147, 249, 365},
			wantCauses:   map[string]int{"bank": 270, "column": 43, "subarray": 52},
		},
		{
			name: "Symbol8-AcrossChannels",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
			},
			trials: 3000, rateScale: 10, tsvFIT: 143,
			wantFailures: 512,
			wantByYear:   []int{9, 42, 104, 186, 284, 394, 512},
			wantCauses: map[string]int{
				"addr-tsv": 10, "bank": 213, "bit": 142, "column": 11,
				"data-tsv": 55, "row": 45, "subarray": 25, "word": 11,
			},
		},
		{
			name: "1DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
			},
			trials: 2000, rateScale: 30, tsvFIT: 0,
			wantFailures: 1804,
			wantByYear:   []int{303, 749, 1152, 1418, 1618, 1735, 1804},
			wantCauses: map[string]int{
				"bank": 1127, "bit": 482, "column": 26, "row": 68,
				"subarray": 78, "word": 23,
			},
		},
		{
			name: "BCH-6EC7ED",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
			},
			trials: 2000, rateScale: 5, tsvFIT: 0,
			wantFailures: 1071,
			wantByYear:   []int{198, 393, 562, 712, 845, 969, 1071},
			wantCauses: map[string]int{
				"bank": 545, "row": 279, "subarray": 146, "word": 101,
			},
		},
	}
}

func runGolden(t *testing.T, gc goldenCase, batch bool) Result {
	t.Helper()
	opt := testOptions(gc.trials, gc.rateScale, gc.tsvFIT)
	pol := gc.pol(opt.Config)
	if batch {
		pol = batchPolicy(pol)
	}
	return RunContext(context.Background(), opt, pol)
}

func checkGolden(t *testing.T, gc goldenCase, res Result) {
	t.Helper()
	if res.Failures != gc.wantFailures {
		t.Errorf("%s: Failures = %d, want %d", gc.name, res.Failures, gc.wantFailures)
	}
	if !reflect.DeepEqual(res.FailuresByYear, gc.wantByYear) {
		t.Errorf("%s: FailuresByYear = %v, want %v", gc.name, res.FailuresByYear, gc.wantByYear)
	}
	if !reflect.DeepEqual(res.CauseCounts, gc.wantCauses) {
		t.Errorf("%s: CauseCounts = %v, want %v", gc.name, res.CauseCounts, gc.wantCauses)
	}
	if res.Trials != gc.trials {
		t.Errorf("%s: Trials = %d, want %d", gc.name, res.Trials, gc.trials)
	}
}

// TestGoldenResults pins the engine's default (incremental) path.
func TestGoldenResults(t *testing.T) {
	skipInShort(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			checkGolden(t, gc, runGolden(t, gc, false))
		})
	}
}

// TestGoldenResultsBatchPath pins the batch oracle (batchPolicy) to the
// same values: both evaluation strategies must produce bit-identical
// statistics.
func TestGoldenResultsBatchPath(t *testing.T) {
	skipInShort(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			checkGolden(t, gc, runGolden(t, gc, true))
		})
	}
}

// printGolden regenerates the pinned literals; run with
//
//	go test -run TestGoldenResults -v -tags ignore ...
//
// by temporarily calling it from a test when rates or geometry change.
func printGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		res := runGolden(t, gc, false)
		fmt.Printf("%s:\n  wantFailures: %d,\n  wantByYear:   %#v,\n  wantCauses:   %#v,\n",
			gc.name, res.Failures, res.FailuresByYear, res.CauseCounts)
	}
}

var _ = printGolden
