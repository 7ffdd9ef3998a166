package perfsim

import (
	"context"

	"repro/internal/cache"
	"repro/internal/stack"
	"repro/internal/workload"
)

// ParityCacheResult reports the outcome of the Figure-13 experiment: the
// LLC hit rate seen by Dimension-1 parity updates when parity lines are
// cached on demand in the shared LLC alongside demand data.
type ParityCacheResult struct {
	Benchmark    string
	Suite        workload.Suite
	ParityHits   uint64
	ParityProbes uint64
	// Partial reports that the measurement was cancelled early; the hit
	// rate covers the requests simulated before cancellation.
	Partial bool
}

// HitRate returns the parity-update hit rate.
func (r ParityCacheResult) HitRate() float64 {
	if r.ParityProbes == 0 {
		return 0
	}
	return float64(r.ParityHits) / float64(r.ParityProbes)
}

// parityTag offsets parity-line addresses into their own region of the
// LLC's address space (the parity bank is a distinct physical region).
const parityTag = uint64(1) << 40

// ParityCacheHitRateContext simulates on-demand parity caching (paper
// Figure 12): every LLC miss installs the demand line, and every dirty
// eviction (writeback) probes the LLC for the victim's Dimension-1 parity
// line, installing it on a miss. Read-heavy workloads churn the LLC and
// evict parity lines between uses, which is why BioBench sees lower hit
// rates (paper Figure 13). Cancelling ctx stops the request stream and
// returns the hit statistics gathered so far, marked Partial.
func ParityCacheHitRateContext(ctx context.Context, prof workload.Profile, llcBytes, ways, requests int, seed int64) ParityCacheResult {
	cfg := stack.DefaultConfig()
	llc, err := cache.New(llcBytes, ways, cfg.LineBytes)
	if err != nil {
		panic("perfsim: bad LLC geometry: " + err.Error())
	}
	gen := workload.NewGenerator(prof, 8, seed)
	s := &sim{cfg: Config{Stack: cfg}}
	res := ParityCacheResult{Benchmark: prof.Name, Suite: prof.Suite}
	for i := 0; i < requests; i++ {
		if i%cancelCheckInterval == 0 && ctx.Err() != nil {
			res.Partial = true
			break
		}
		req := gen.Next()
		addr := req.LineAddr * uint64(cfg.LineBytes)
		r := llc.Access(addr, req.Write)
		// Dirty evictions are the writebacks that need parity updates.
		if r.Writeback {
			victimLine := r.WritebackAddr / uint64(cfg.LineBytes)
			pl := s.parityLine(s.lineIndex(victimLine))
			pAddr := parityTag + uint64(pl)*uint64(cfg.LineBytes)
			pr := llc.Access(pAddr, true)
			res.ParityProbes++
			if pr.Hit {
				res.ParityHits++
			}
		}
	}
	return res
}
