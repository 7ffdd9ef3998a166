package citadel_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment (at a reduced
// Monte Carlo trial count so `go test -bench=.` completes in minutes) and
// reports the headline metric via b.ReportMetric. Run
//
//	go test -bench=. -benchmem
//
// for the whole evaluation, or cmd/citadel-repro for full-fidelity runs
// with printed tables.

import (
	"context"
	"math"
	"testing"

	citadel "repro"
	"repro/internal/experiments"
)

// benchOptions keeps benchmark iterations affordable.
func benchOptions() experiments.Options {
	return experiments.Options{Trials: 20000, Requests: 20000, Seed: 42}
}

// runExperiment is the shared driver: regenerate the experiment b.N times.
func runExperiment(b *testing.B, id string) {
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunContext(context.Background(), id, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1FITRates regenerates Table I (FIT rates for 8 Gb dies).
func BenchmarkTable1FITRates(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Config regenerates Table II (baseline configuration).
func BenchmarkTable2Config(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig4StripingReliability regenerates Figure 4: reliability of the
// 8-bit symbol code under the three striping layouts across TSV FIT rates.
func BenchmarkFig4StripingReliability(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5StripingCost regenerates Figure 5: the execution-time and
// power cost of striping (GMEAN over 38 workloads).
func BenchmarkFig5StripingCost(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig9TSVSwap regenerates Figure 9: TSV-SWAP achieves reliability
// close to a TSV-fault-free system even at 1430 FIT.
func BenchmarkFig9TSVSwap(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig13ParityCaching regenerates Figure 13: the LLC hit rate of
// Dimension-1 parity caching (~85% average).
func BenchmarkFig13ParityCaching(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14ParityDimensions regenerates Figure 14: resilience of
// 1DP/2DP/3DP vs the striped symbol code over years 1-7.
func BenchmarkFig14ParityDimensions(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15ExecutionTime regenerates Figure 15: per-benchmark
// normalized execution time for 3DP (with and without parity caching) and
// the striped layouts.
func BenchmarkFig15ExecutionTime(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16ActivePower regenerates Figure 16: normalized active power
// per suite.
func BenchmarkFig16ActivePower(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17Bimodal regenerates Figure 17: the bimodal distribution of
// rows needed to spare a faulty bank.
func BenchmarkFig17Bimodal(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkTable3FailedBanks regenerates Table III: failed banks per
// system among systems with at least one bank failure.
func BenchmarkTable3FailedBanks(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig18CitadelResilience regenerates Figure 18: 3DP+DDS vs the
// symbol-based code (the 700x headline).
func BenchmarkFig18CitadelResilience(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig19StrongCodes regenerates Figure 19: Citadel vs 6EC7ED BCH
// and RAID-5 with no TSV faults.
func BenchmarkFig19StrongCodes(b *testing.B) { runExperiment(b, "fig19") }

// BenchmarkOverhead regenerates the §VII-E storage-overhead accounting.
func BenchmarkOverhead(b *testing.B) { runExperiment(b, "overhead") }

// BenchmarkMonteCarloTrialThroughput measures raw trial throughput of the
// reliability engine for the full Citadel policy — the figure of merit for
// FaultSim-class tools.
func BenchmarkMonteCarloTrialThroughput(b *testing.B) {
	opts := citadel.ReliabilityOptions{
		Rates:   citadel.Table1Rates().WithTSV(1430),
		Trials:  b.N,
		TSVSwap: true,
		Seed:    1,
	}
	b.ResetTimer()
	r, err := citadel.Simulate(context.Background(), opts, citadel.SchemeCitadel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.Trials)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkPerfSimRequestThroughput measures the performance model's
// request throughput.
func BenchmarkPerfSimRequestThroughput(b *testing.B) {
	prof, _ := citadel.BenchmarkByName("mcf")
	b.ResetTimer()
	r := citadel.SimulatePerformance(context.Background(), prof, citadel.PerfOptions{Requests: b.N, Seed: 1})
	if r.Cycles == 0 && b.N > 1000 {
		b.Fatal("simulation produced no cycles")
	}
}

// BenchmarkFunctionalReadHealthy measures the functional controller's
// fault-free read path (CRC verification dominated).
func BenchmarkFunctionalReadHealthy(b *testing.B) {
	ctl, err := citadel.NewController(citadel.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, ctl.Config().LineBytes)
	if err := ctl.Write(0, line); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Read(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpareRows sweeps the DDS row budget (the design choice
// behind the paper's "4 rows per bank" rule) and reports the failure
// probability at each budget as a custom metric.
func BenchmarkAblationSpareRows(b *testing.B) {
	// This ablation uses the census distribution rather than full Monte
	// Carlo: the fraction of faulty banks whose row demand exceeds the
	// budget determines how often coarse sparing is needed.
	rates := citadel.Table1Rates()
	rates.BankPermanent *= 50
	rates.RowPermanent *= 50
	opts := citadel.ReliabilityOptions{Rates: rates, Trials: 5000, Seed: 9, TSVSwap: true}
	b.ResetTimer()
	var escape4 float64
	for i := 0; i < b.N; i++ {
		c, err := citadel.RunFaultCensus(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		total, over := 0, 0
		for rows, n := range c.RowsHistogram {
			total += n
			if rows > 4 {
				over += n
			}
		}
		if total > 0 {
			escape4 = float64(over) / float64(total)
		}
	}
	if !math.IsNaN(escape4) {
		b.ReportMetric(100*escape4, "%banks-needing-bank-spare")
	}
}

// BenchmarkAblationOrganizations re-runs the headline comparison on the
// HBM-, HMC- and Tezzaron-like organizations (paper §II-C).
func BenchmarkAblationOrganizations(b *testing.B) { runExperiment(b, "orgs") }

// BenchmarkAblationScrubInterval sweeps the scrub interval for 3DP and
// 3DP+DDS.
func BenchmarkAblationScrubInterval(b *testing.B) { runExperiment(b, "scrub") }

// BenchmarkAblationDDSBudgets sweeps the RRT/BRT sparing budgets.
func BenchmarkAblationDDSBudgets(b *testing.B) { runExperiment(b, "spares") }

// BenchmarkAblationTSVPool sweeps the stand-by TSV pool size.
func BenchmarkAblationTSVPool(b *testing.B) { runExperiment(b, "tsvpool") }

// BenchmarkAblationParityCacheSensitivity sweeps the Dim-1 parity-cache
// hit rate against 3DP's slowdown.
func BenchmarkAblationParityCacheSensitivity(b *testing.B) { runExperiment(b, "paritysens") }

// BenchmarkAblationPriorWork compares 3DP against the prior 2D-ECC tile
// code (§VIII-E's ~130x claim).
func BenchmarkAblationPriorWork(b *testing.B) { runExperiment(b, "priorwork") }

// BenchmarkAblationBookkeeping contrasts codeword-exact vs device-granular
// ChipKill bookkeeping (recovers Figure 14's 7x under the latter).
func BenchmarkAblationBookkeeping(b *testing.B) { runExperiment(b, "bookkeeping") }

// BenchmarkAblationDensity sweeps projected die densities (8-64 Gb) using
// the paper's §III-A scaling rules.
func BenchmarkAblationDensity(b *testing.B) { runExperiment(b, "density") }
