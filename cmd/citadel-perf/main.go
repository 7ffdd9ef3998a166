// Command citadel-perf runs the performance/power model for one benchmark
// (or all of them) under a chosen striping layout and protection scheme.
//
// Usage:
//
//	citadel-perf -benchmark mcf -striping across-channels
//	citadel-perf -benchmark all -protection 3dp
//	citadel-perf -benchmark mcf -phases -trace mcf.json
//	citadel-perf -list
//
// -phases prints the per-read latency attribution (queue / activate / cas /
// bus / burst, plus the 3DP parity overhead). -trace writes sampled
// per-request spans as Chrome trace-event JSON (timestamps in memory-bus
// cycles; open in Perfetto / chrome://tracing).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	citadel "repro"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func main() {
	var (
		benchmark  = flag.String("benchmark", "all", "benchmark name or 'all'")
		striping   = flag.String("striping", "same-bank", "same-bank | across-banks | across-channels")
		protection = flag.String("protection", "none", "none | 3dp | 3dp-no-cache")
		requests   = flag.Int("requests", 100000, "memory requests to simulate")
		seed       = flag.Int64("seed", 1, "random seed")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		phases     = flag.Bool("phases", false, "print per-read latency attribution")
		traceOut   = flag.String("trace", "", "write sampled request spans (Chrome trace-event JSON) to this file")
		sample     = flag.Int("sample", 64, "trace: keep roughly 1-in-N read spans")
	)
	flag.Parse()

	if *list {
		for _, b := range citadel.Benchmarks() {
			fmt.Printf("%-12s %-9s MPKI=%.1f WBPKI=%.1f\n", b.Name, b.Suite, b.MPKI, b.WBPKI)
		}
		return
	}
	if *requests < 0 {
		fmt.Fprintf(os.Stderr, "-requests must be non-negative, got %d\n", *requests)
		os.Exit(2)
	}
	st, prot, err := citadel.ParsePerfNames(*striping, *protection)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var benches []citadel.Benchmark
	if *benchmark == "all" {
		benches = citadel.Benchmarks()
	} else {
		b, ok := citadel.BenchmarkByName(*benchmark)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; use -list\n", *benchmark)
			os.Exit(2)
		}
		benches = []citadel.Benchmark{b}
	}

	var rec *trace.Recorder
	runID := obs.NewRunID()
	if *traceOut != "" {
		rec = trace.New(trace.Options{
			RunID:       runID,
			SampleEvery: *sample,
			Seed:        *seed,
			ClockUnit:   "cycles",
		})
	}

	fmt.Printf("%-12s %-9s %14s %14s %16s %10s\n",
		"benchmark", "suite", "cycles", "norm.time", "active power W", "row-hit")
	for _, b := range benches {
		base := citadel.SimulatePerformance(context.Background(), b, citadel.PerfOptions{Requests: *requests, Seed: *seed})
		r := citadel.SimulatePerformance(context.Background(), b, citadel.PerfOptions{
			Striping: st, Protection: prot, Requests: *requests, Seed: *seed,
			RunID: runID, Tracer: rec,
		})
		fmt.Printf("%-12s %-9s %14d %14.3f %16.3f %9.1f%%\n",
			b.Name, b.Suite, r.Cycles,
			float64(r.Cycles)/float64(base.Cycles),
			r.ActivePowerWatts, 100*r.RowHitRate)
		if *phases {
			p := r.ReadPhases
			fmt.Printf("%-12s   read latency %.1f cycles = queue %.1f + activate %.1f + cas %.1f + bus %.1f + burst %.1f",
				"", r.AvgReadLatencyCycles, p.Queue, p.Activate, p.CAS, p.Bus, p.Burst)
			if r.AvgParityOverheadCycles > 0 {
				fmt.Printf("; parity overhead %.1f cycles/writeback", r.AvgParityOverheadCycles)
			}
			fmt.Println()
		}
	}
	if rec.Enabled() {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = rec.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: run=%s %d events (%d dropped) -> %s\n",
			runID, rec.Len(), rec.Dropped(), *traceOut)
	}
}
