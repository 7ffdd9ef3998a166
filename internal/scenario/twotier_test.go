package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

func buildTwoTier(t *testing.T, p Params) (*twoTierPredicate, *twoTierObserver) {
	t.Helper()
	cfg := stack.DefaultConfig()
	pol, err := BuildScheme(twoTierSchemeName, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return pol.Predicate.(*twoTierPredicate), pol.NewObserver(cfg).(*twoTierObserver)
}

// exactFault places a die-exact fault at one (die, bank, row) with full
// column coverage, the footprint shape the sampler emits for Row faults.
func exactFault(die, bank, row uint32) fault.Fault {
	return fault.Fault{
		Class: fault.Row,
		Region: fault.Region{
			Die:  fault.ExactPattern(die),
			Bank: fault.ExactPattern(bank),
			Row:  fault.ExactPattern(row),
			Col:  fault.AllPattern(),
		},
	}
}

func TestTwoTierBuildValidation(t *testing.T) {
	odd := stack.DefaultConfig()
	odd.DataDies = 3
	if _, err := BuildScheme(twoTierSchemeName, odd, nil); err == nil {
		t.Fatal("expected error for odd data-die count")
	}
	if _, err := BuildScheme(twoTierSchemeName, stack.DefaultConfig(), Params{"fetchBandwidthGBps": 0}); err == nil {
		t.Fatal("expected error for zero bandwidth")
	}
	if _, err := BuildScheme(twoTierSchemeName, stack.DefaultConfig(), Params{"fetchLatencyMicros": -1}); err == nil {
		t.Fatal("expected error for negative latency")
	}
}

func TestTwoTierPredicate(t *testing.T) {
	pred, _ := buildTwoTier(t, nil)
	half := uint32(stack.DefaultConfig().DataDies / 2)

	// A single fast-tier fault: replica intact, correctable.
	if pred.Uncorrectable([]fault.Fault{exactFault(0, 2, 7)}) {
		t.Fatal("single fast-tier fault should be correctable")
	}
	// Fast copy and its mirror both faulty: data loss.
	if !pred.Uncorrectable([]fault.Fault{exactFault(0, 2, 7), exactFault(half, 2, 7)}) {
		t.Fatal("fast fault + mirrored backing fault should be fatal")
	}
	// Mirror pair in different banks never overlaps.
	if pred.Uncorrectable([]fault.Fault{exactFault(0, 2, 7), exactFault(half, 3, 7)}) {
		t.Fatal("different banks should not pair-kill")
	}
	// Two fast-tier faults: both replicas live in the backing tier.
	if pred.Uncorrectable([]fault.Fault{exactFault(0, 2, 7), exactFault(1, 2, 7)}) {
		t.Fatal("two fast-tier faults should be correctable")
	}
	// Different stacks never pair.
	g := exactFault(half, 2, 7)
	g.Region.Stack = 1
	if pred.Uncorrectable([]fault.Fault{exactFault(0, 2, 7), g}) {
		t.Fatal("different stacks should not pair-kill")
	}
	// One footprint spanning every die (an address-TSV-like wide fault)
	// covers a cell and its mirror by itself: i == j must be considered.
	wide := exactFault(0, 2, 7)
	wide.Region.Die = fault.AllPattern()
	if !pred.Uncorrectable([]fault.Fault{wide}) {
		t.Fatal("all-die footprint should be fatal on its own")
	}
	// Metadata-die faults are outside the mirror mapping.
	meta := exactFault(uint32(stack.DefaultConfig().DataDies), 2, 7)
	if pred.Uncorrectable([]fault.Fault{meta, exactFault(0, 2, 7)}) {
		t.Fatal("metadata-die fault should not pair-kill")
	}
}

func TestTwoTierObserverStats(t *testing.T) {
	cfg := stack.DefaultConfig()
	_, obs := buildTwoTier(t, Params{"fetchLatencyMicros": 2, "fetchBandwidthGBps": 4})

	// Correctable fast-tier row fault: one fetch event, one row.
	obs.Arrival(exactFault(0, 1, 5), false)
	// Backing-tier fault: no fetch.
	obs.Arrival(exactFault(uint32(cfg.DataDies/2), 1, 5), false)
	// Uncorrectable arrival: data lost, not repaired, not counted.
	obs.Arrival(exactFault(1, 1, 5), true)
	// Fast-tier bank fault: whole bank's rows fetched.
	bankFault := exactFault(2, 3, 0)
	bankFault.Class = fault.Bank
	bankFault.Region.Row = fault.AllPattern()
	obs.Arrival(bankFault, false)

	stats := map[string]float64{}
	obs.FlushStats(stats)
	wantRows := float64(1 + cfg.RowsPerBank)
	if stats["tierFetchEvents"] != 2 {
		t.Fatalf("tierFetchEvents = %g, want 2", stats["tierFetchEvents"])
	}
	if stats["tierFetchRows"] != wantRows {
		t.Fatalf("tierFetchRows = %g, want %g", stats["tierFetchRows"], wantRows)
	}
	wantBytes := wantRows * float64(cfg.RowBytes)
	if stats["tierFetchBytes"] != wantBytes {
		t.Fatalf("tierFetchBytes = %g, want %g", stats["tierFetchBytes"], wantBytes)
	}
	// Each arrival's fetch time is rounded to fetchQuantum.
	quantized := func(sec float64) float64 { return math.Round(sec/fetchQuantum) * fetchQuantum }
	rowSec := 2e-6 + float64(cfg.RowBytes)/4e9
	bankSec := 2e-6 + float64(cfg.RowsPerBank*cfg.RowBytes)/4e9
	if got, want := stats["tierFetchSeconds"], quantized(rowSec)+quantized(bankSec); got != want {
		t.Fatalf("tierFetchSeconds = %g, want %g", got, want)
	}
	if got, want := stats["tierFetchSeconds"], rowSec+bankSec; math.Abs(got-want) > fetchQuantum {
		t.Fatalf("tierFetchSeconds = %g, more than one quantum from %g", got, want)
	}
	// FlushStats adds into the destination (per-worker fold contract).
	obs.FlushStats(stats)
	if stats["tierFetchEvents"] != 4 {
		t.Fatalf("second flush did not accumulate: %g", stats["tierFetchEvents"])
	}
}

// TestTwoTierStatsSumExactly: the flushed counters must not depend on how
// arrivals were split across observers (workers or chunks), which holds
// only if every sum is exact.
func TestTwoTierStatsSumExactly(t *testing.T) {
	cfg := stack.DefaultConfig()
	params := Params{"fetchLatencyMicros": 0.3, "fetchBandwidthGBps": 7}
	var arrivals []fault.Fault
	for i := uint32(0); i < 60; i++ {
		f := exactFault(i%uint32(cfg.DataDies/2), i%5, 3*i)
		if i%7 == 0 {
			f.Class = fault.Bank
			f.Region.Row = fault.AllPattern()
		}
		arrivals = append(arrivals, f)
	}
	flushSplit := func(parts int) map[string]float64 {
		stats := map[string]float64{}
		for p := 0; p < parts; p++ {
			_, obs := buildTwoTier(t, params)
			for i := p; i < len(arrivals); i += parts {
				obs.Arrival(arrivals[i], false)
			}
			obs.FlushStats(stats)
		}
		return stats
	}
	whole := flushSplit(1)
	for _, parts := range []int{2, 3, 7} {
		if got := flushSplit(parts); !reflect.DeepEqual(got, whole) {
			t.Errorf("split over %d observers: %v, want %v", parts, got, whole)
		}
	}
}
