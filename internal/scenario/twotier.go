package scenario

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

// two-tier-replication models the memory-replication organization of
// Volos & Sazeides: the stack's data dies split into a fast tier (the
// first DataDies/2 dies of each stack) and a slower backing tier (the
// remaining half), with every fast-tier row mirrored at the same
// (bank, row) of its partner die d + DataDies/2. Per-line CRC detects
// corruption; a detected-bad fast-tier access is repaired by fetching the
// replica from the backing tier, so data is lost only when both copies of
// some cell are faulty at once — a fast-tier footprint and a backing-tier
// footprint overlapping under the mirror mapping.
//
// Repair is not free: every corrected fault arrival that touches the fast
// tier triggers replica fetches for the rows its footprint covers. The
// fetch traffic and its latency/bandwidth cost are surfaced through
// Result.ScenarioStats (tierFetchEvents/Rows/Bytes/Seconds), priced by
// the fetchLatencyMicros and fetchBandwidthGBps parameters. Faults on the
// metadata (ECC) dies are assumed covered by the mirrored directory and
// are neither fatal nor counted.

const (
	defaultFetchLatencyMicros = 0.8
	defaultFetchBandwidthGBps = 16.0
	twoTierSchemeName         = "two-tier-replication"
	// fetchQuantum is the resolution of tierFetchSeconds. Each arrival's
	// fetch time is rounded to a multiple of this power of two, so every
	// partial sum is exact and the total does not depend on how the
	// trials were split across workers or chunks (~0.93 ns; exact up to
	// 2^23 s of fetch time).
	fetchQuantum = 1.0 / (1 << 30)
)

func init() {
	RegisterScheme(Scheme{
		Name:        twoTierSchemeName,
		Description: "fast tier mirrored onto a slow backing tier; repair fetches the replica, costed in ScenarioStats",
		Params: []ParamDoc{
			{Name: "fetchLatencyMicros", Default: defaultFetchLatencyMicros,
				Doc: "per-fetch-event latency of a backing-tier replica fetch, in microseconds"},
			{Name: "fetchBandwidthGBps", Default: defaultFetchBandwidthGBps,
				Doc: "backing-tier fetch bandwidth, in GB/s, pricing the re-replication traffic"},
		},
		Build: func(cfg stack.Config, p Params) (faultsim.Policy, error) {
			if cfg.DataDies < 2 || cfg.DataDies%2 != 0 {
				return faultsim.Policy{}, fmt.Errorf(
					"scenario: %s needs an even number of data dies >= 2, got %d",
					twoTierSchemeName, cfg.DataDies)
			}
			lat := p.Get("fetchLatencyMicros", defaultFetchLatencyMicros)
			bw := p.Get("fetchBandwidthGBps", defaultFetchBandwidthGBps)
			if lat < 0 || bw <= 0 {
				return faultsim.Policy{}, fmt.Errorf(
					"scenario: %s needs fetchLatencyMicros >= 0 and fetchBandwidthGBps > 0", twoTierSchemeName)
			}
			half := cfg.DataDies / 2
			return faultsim.Policy{
				Name:      twoTierSchemeName,
				Predicate: &twoTierPredicate{half: half},
				NewObserver: func(c stack.Config) faultsim.Observer {
					return &twoTierObserver{cfg: c, half: half, latencySec: lat * 1e-6, bwBytesPerSec: bw * 1e9}
				},
			}, nil
		},
	})
}

// twoTierPredicate declares the live set uncorrectable when a fast-tier
// footprint and a backing-tier footprint overlap under the mirror mapping
// die d <-> d+half — both copies of some cell are then faulty.
type twoTierPredicate struct {
	half int
}

func (p *twoTierPredicate) Name() string { return twoTierSchemeName }

func (p *twoTierPredicate) Uncorrectable(live []fault.Fault) bool {
	// A single fault can kill only if its own footprint covers both a
	// fast-tier cell and its mirror (possible for Die patterns wider than
	// one die), so the double loop includes i == j.
	for i := range live {
		for j := range live {
			if p.pairKills(&live[i].Region, &live[j].Region) {
				return true
			}
		}
	}
	return false
}

// pairKills reports whether f (as the fast-tier copy) and g (as the
// backing copy) overlap on some mirrored cell.
func (p *twoTierPredicate) pairKills(f, g *fault.Region) bool {
	if f.Stack != g.Stack {
		return false
	}
	if !f.Bank.Intersects(g.Bank) || !f.Row.Intersects(g.Row) || !f.Col.Intersects(g.Col) {
		return false
	}
	for d := 0; d < p.half; d++ {
		if f.Die.Contains(uint32(d)) && g.Die.Contains(uint32(d+p.half)) {
			return true
		}
	}
	return false
}

// twoTierObserver tallies the repair traffic: every corrected arrival
// touching the fast tier fetches its footprint's rows from the backing
// tier. Counters are flushed into Result.ScenarioStats per worker.
type twoTierObserver struct {
	cfg           stack.Config
	half          int
	latencySec    float64
	bwBytesPerSec float64

	fetchEvents  float64
	fetchRows    float64
	fetchSeconds float64
}

func (o *twoTierObserver) Arrival(f fault.Fault, uncorrectable bool) {
	if uncorrectable {
		return // data lost, not repaired
	}
	fast := false
	for d := 0; d < o.half; d++ {
		if f.Region.Die.Contains(uint32(d)) {
			fast = true
			break
		}
	}
	if !fast {
		return // backing-tier or metadata fault: no fetch needed
	}
	rows := float64(f.Region.Row.CountBelow(uint32(o.cfg.RowsPerBank)))
	banks := float64(f.Region.Bank.CountBelow(uint32(o.cfg.BanksPerDie)))
	o.fetchEvents++
	o.fetchRows += rows * banks
	sec := o.latencySec + rows*banks*float64(o.cfg.RowBytes)/o.bwBytesPerSec
	o.fetchSeconds += math.Round(sec/fetchQuantum) * fetchQuantum
}

func (o *twoTierObserver) FlushStats(dst map[string]float64) {
	bytes := o.fetchRows * float64(o.cfg.RowBytes)
	dst["tierFetchEvents"] += o.fetchEvents
	dst["tierFetchRows"] += o.fetchRows
	dst["tierFetchBytes"] += bytes
	dst["tierFetchSeconds"] += o.fetchSeconds
}
