// Command citadel-sim runs a single Monte Carlo reliability study for one
// protection scheme.
//
// Usage:
//
//	citadel-sim -scheme Citadel -trials 200000 -tsv-fit 1430
//	citadel-sim -scheme 3DP -tsvswap -years 5
//	citadel-sim -scheme Citadel -target-failures 50 -max-trials 5000000
//	citadel-sim -rates myrates.json -scheme 3DP
//	citadel-sim -scheme 3DP -tsv-fit 1430 -forensics fail.json -trace run.json
//	citadel-sim -scheme Citadel -rare-event -target-failures 20 -forensics fail.json
//	citadel-sim -scheme Citadel -trials 2000000 -job-dir ./campaigns
//	citadel-sim -scheme two-tier-replication -trials 200000
//	citadel-sim -scheme Citadel -fault-model rowhammer -scenario-param aggressors=8
//	citadel-sim -list
//	citadel-sim -list-scenarios
//
// Beyond the paper's schemes (-list), -scheme and -fault-model accept any
// plugin registered in the scenario registry (internal/scenario);
// -list-scenarios prints the catalog with per-plugin -scenario-param
// knobs. Scenario-specific counters (replica-fetch traffic, rowhammer
// episodes) are printed after the result line.
//
// -forensics writes a replayable failure-forensics report (feed it to
// citadel-repro -forensics to verify). -trace writes the flight recorder
// as Chrome trace-event JSON (open in Perfetto / chrome://tracing). Both
// compose with every scheme, fault model, -rare-event and
// -target-failures; citadel.ReliabilityOptions.Validate names the few
// combinations that are rejected (exit 2).
//
// -job-dir runs the campaign durably: progress is checkpointed to a
// content-addressed store every -checkpoint-trials trials, so a killed
// run resumes where it stopped (-resume, on by default) and a repeated
// identical run is answered from cache without simulating at all. The
// store directory is shared with citadel-server -job-dir. Both modes run
// one jobs.ReliabilitySpec built from the flags; -trace and -rates stay
// local to a direct run, and jobs.Spec.Validate rejects a campaign with
// -target-failures, -max-trials or -forensics (exit 2).
//
// -cluster-listen (durable mode only) additionally serves the
// coordinator protocol on the given address, so citadel-worker
// processes can pull chunks of this one campaign:
//
//	citadel-sim -scheme Citadel -trials 2000000 -job-dir ./campaigns -cluster-listen :8080
//	citadel-worker -coordinator http://localhost:8080    # in other terminals / hosts
//
// If no worker shows up within the grace period the campaign simply
// runs locally — the flag never blocks a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	citadel "repro"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/scenario"
	"repro/internal/store"
)

// printScenarioStats dumps scenario-plugin counters sorted by name.
func printScenarioStats(stats map[string]float64) {
	if len(stats) == 0 {
		return
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("scenario: %s=%g\n", k, stats[k])
	}
}

// printCatalogSection lists one side of the scenario catalog.
func printCatalogSection(title string, entries []scenario.CatalogEntry) {
	fmt.Printf("%s:\n", title)
	for _, e := range entries {
		fmt.Printf("  %-26s %s\n", e.Name, e.Description)
		for _, p := range e.Params {
			fmt.Printf("      -scenario-param %s=... (default %g): %s\n", p.Name, p.Default, p.Doc)
		}
	}
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	// The run's settings are one jobs.ReliabilitySpec, the form a durable
	// campaign and POST /api/v1/reliability take; spec.Options maps it
	// onto the library's options on every path.
	var spec jobs.ReliabilitySpec
	flag.StringVar(&spec.Scheme, "scheme", "Citadel", "protection scheme (see -list)")
	flag.IntVar(&spec.Trials, "trials", faultsim.DefaultTrials, "Monte Carlo trials")
	flag.Float64Var(&spec.TSVFIT, "tsv-fit", 0, "TSV failure rate per die (FIT)")
	flag.BoolVar(&spec.TSVSwap, "tsvswap", false, "force TSV-SWAP on")
	flag.Float64Var(&spec.LifetimeYears, "years", fault.LifetimeHours/fault.HoursPerYear, "lifetime in years")
	flag.Float64Var(&spec.ScrubHours, "scrub", faultsim.DefaultScrubIntervalHours, "scrub interval in hours")
	flag.Int64Var(&spec.Seed, "seed", 1, "random seed")
	flag.IntVar(&spec.TargetFailures, "target-failures", 0, "adaptive mode: add trials until this many failures")
	flag.IntVar(&spec.MaxTrials, "max-trials", 0, "adaptive mode: trial cap (default 10x -trials; requires -target-failures)")
	flag.IntVar(&spec.CheckpointTrials, "checkpoint-trials", jobs.DefaultCheckpointTrials, "durable mode: trials per checkpoint chunk (part of the campaign identity)")
	flag.IntVar(&spec.Workers, "workers", 0, "engine worker goroutines (0 = GOMAXPROCS; sets parallelism only, never the result)")
	flag.BoolVar(&spec.RareEvent, "rare-event", false, "importance-sampled rare-event engine: bias large-granularity faults, unbias via likelihood ratios (resolves <1e-6 tails)")
	flag.Float64Var(&spec.BiasFactor, "bias-factor", 0, "rare-event mode: large-granularity rate inflation (0 = default 16)")
	flag.StringVar(&spec.FaultModel, "fault-model", "", "arrival-process plugin (empty = poisson; see -list-scenarios)")
	var (
		list       = flag.Bool("list", false, "list schemes and exit")
		ratesPath  = flag.String("rates", "", "JSON file with custom FIT rates (overrides Table I)")
		progress   = flag.Duration("progress", 2*time.Second, "progress report interval on stderr (0 disables)")
		forensics  = flag.String("forensics", "", "write a replayable failure-forensics report (JSON) to this file")
		exemplars  = flag.Int("exemplars", 8, "forensics: max exemplar records captured")
		traceOut   = flag.String("trace", "", "write the flight recorder (Chrome trace-event JSON) to this file")
		sample     = flag.Int("sample", 64, "trace: keep roughly 1-in-N trial spans")
		jobDir     = flag.String("job-dir", "", "durable mode: checkpoint/resume the campaign via this store directory")
		resume     = flag.Bool("resume", true, "durable mode: resume from an existing checkpoint (false restarts from trial zero)")
		clusterOn  = flag.String("cluster-listen", "", "durable mode: serve the coordinator protocol on this address so citadel-worker processes can pull chunks")
		workerWait = flag.Duration("worker-grace", 10*time.Second, "cluster mode: how long to wait for a live worker before running locally")
		listScen   = flag.Bool("list-scenarios", false, "list registered scenario schemes and fault models with their parameters, then exit")
	)
	spec.ScenarioParams = map[string]float64{}
	flag.Func("scenario-param", "scenario plugin knob as name=value (repeatable; see -list-scenarios)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want name=value, got %q", s)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("value of %q: %v", strings.TrimSpace(name), err)
		}
		spec.ScenarioParams[strings.TrimSpace(name)] = v
		return nil
	})
	flag.Parse()
	spec.Forensics = *forensics != ""

	if *list {
		for _, s := range citadel.Schemes() {
			fmt.Println(s)
		}
		return
	}
	if *listScen {
		cat := scenario.BuildCatalog()
		printCatalogSection("schemes", cat.Schemes)
		printCatalogSection("fault models", cat.FaultModels)
		return
	}
	if *clusterOn != "" && *jobDir == "" {
		fmt.Fprintln(os.Stderr, "-cluster-listen requires -job-dir (chunks checkpoint through the job store)")
		os.Exit(2)
	}
	if *jobDir != "" {
		// The spec cannot carry a rates table or a trace; jobs.Spec.Validate
		// rejects every other setting a campaign cannot honour.
		if *traceOut != "" || *ratesPath != "" {
			fmt.Fprintln(os.Stderr, "-job-dir is incompatible with -trace and -rates")
			os.Exit(2)
		}
		runDurable(durableRun{
			dir:           *jobDir,
			resume:        *resume,
			clusterListen: *clusterOn,
			workerGrace:   *workerWait,
			spec:          spec,
			progressEvery: *progress,
		})
		return
	}

	opts := spec.Options()
	if *ratesPath != "" {
		loaded, err := fault.LoadRates(*ratesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Rates = loaded.WithTSV(spec.TSVFIT)
	}
	opts.RunID = obs.NewRunID()
	opts.MaxExemplars = *exemplars
	scheme := citadel.Scheme(spec.Scheme)
	if err := opts.Validate(scheme); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceOut != "" {
		opts.Trace = trace.New(trace.Options{
			RunID:       opts.RunID,
			SampleEvery: *sample,
			Seed:        spec.Seed,
		})
	}
	// Periodic progress on stderr, so a long or interrupted run shows what
	// it was doing. The final snapshot (Done) is skipped: the result line
	// below carries the same numbers.
	if *progress > 0 {
		opts.ProgressInterval = *progress
		opts.Progress = func(p citadel.RunProgress) {
			if p.Done {
				return
			}
			fmt.Fprintf(os.Stderr, "progress: run=%s %s trials=%d/%d failures=%d scrubs=%d rate=%.0f trials/s elapsed=%s\n",
				p.RunID, p.Policy, p.TrialsDone, p.TrialsTarget, p.Failures, p.ScrubPasses,
				p.TrialsPerSec(), p.Elapsed.Round(time.Second))
		}
	}
	// Ctrl-C cancels the run; the engine returns within one trial batch
	// and we report the statistics gathered so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := citadel.Simulate(ctx, opts, scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if res.Partial {
		fmt.Fprintf(os.Stderr, "interrupted: partial result over %d completed trials\n", res.Trials)
	}
	if spec.TargetFailures > 0 && !res.Partial && !res.TargetMet {
		fmt.Fprintf(os.Stderr, "adaptive: target of %d failures NOT reached (%d observed at the trial cap); consider -rare-event\n",
			spec.TargetFailures, res.Failures)
	}
	if spec.RareEvent {
		fmt.Fprintf(os.Stderr, "rare-event: ESS=%.1f effective-trials=%.3g (%.0fx the %d simulated)\n",
			res.ESS(), res.EffectiveTrials(), res.EffectiveTrials()/float64(max(res.Trials, 1)), res.Trials)
	}
	if *forensics != "" {
		report := citadel.NewForensicsReport(opts, scheme, res)
		if err := writeJSONFile(*forensics, report); err != nil {
			fmt.Fprintf(os.Stderr, "writing forensics report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "forensics: run=%s %d failure modes, %d exemplars -> %s\n",
			opts.RunID, len(report.Breakdown), len(report.Exemplars), *forensics)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = opts.Trace.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: run=%s %d events (%d dropped) -> %s\n",
			opts.RunID, opts.Trace.Len(), opts.Trace.Dropped(), *traceOut)
	}
	printResult(res, spec.LifetimeYears)
}

// printResult ends both modes: it prints the result line and the
// scenario counters, exits 1 when no trial completed, and then prints the
// probability of failure by the end of each year the result tallies, up
// to the end of the lifetime: a lifetime that is not a whole number of
// years ends in a partial year, whose row covers the whole lifetime.
// years is the -years flag, where 0 stands for the default lifetime. The
// header names the lifetime, which the result line does not. A result
// whose importance weights underflowed has no year table: its line says
// it is unresolved.
func printResult(res citadel.Result, years float64) {
	fmt.Println(res)
	printScenarioStats(res.ScenarioStats)
	if res.Trials == 0 {
		os.Exit(1)
	}
	if res.WeightsUnderflowed() {
		return
	}
	if years == 0 {
		years = fault.LifetimeHours / fault.HoursPerYear
	}
	fmt.Printf("%-6s P(failure), lifetime %gy\n", "year", years)
	for y := 1; y <= len(res.FailuresByYear); y++ {
		fmt.Printf("%-6d %.3e\n", y, res.ProbabilityByYear(y))
	}
}

// durableRun carries the -job-dir mode configuration.
type durableRun struct {
	dir           string
	resume        bool
	clusterListen string // non-empty: serve the coordinator protocol here
	workerGrace   time.Duration
	spec          jobs.ReliabilitySpec
	progressEvery time.Duration
}

// runDurable executes the campaign through the job orchestrator instead
// of calling the engine directly: the run is chunked, each completed
// chunk is checkpointed into the content-addressed store, a killed run
// resumes from its checkpoint, and a repeated identical spec is served
// from cache with zero new trials.
func runDurable(cfg durableRun) {
	logf := func(format string, args ...any) { log.Printf(format, args...) }
	st, err := store.Open(cfg.dir, store.Options{Logf: logf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "job store %s: %v\n", cfg.dir, err)
		os.Exit(1)
	}
	spec := jobs.Spec{Kind: jobs.KindReliability, Reliability: &cfg.spec}
	if !cfg.resume {
		// Forget everything the store knows about this exact spec so the
		// campaign restarts from trial zero.
		if key, err := spec.Key(); err == nil {
			st.DeleteJob(key)
			st.DeleteResult(key)
		}
	}
	// With -cluster-listen, chunks are offered to pulling citadel-worker
	// processes first; the campaign falls back to local execution if none
	// show up within the grace period (or all die mid-campaign).
	orchOpts := jobs.Options{Store: st, Workers: 1, QueueDepth: 1, Logf: logf}
	var coord *cluster.Coordinator
	if cfg.clusterListen != "" {
		coord = cluster.New(cluster.Options{NoWorkerGrace: cfg.workerGrace, Logf: logf})
		defer coord.Close()
		srv := &http.Server{
			Addr:    cfg.clusterListen,
			Handler: api.New(api.Options{Cluster: coord, Logf: logf}).Handler(),
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "cluster listener %s: %v (running locally)\n", cfg.clusterListen, err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cluster: coordinator on %s; point citadel-worker -coordinator at it (local fallback after %s without workers)\n",
			cfg.clusterListen, cfg.workerGrace)
		orchOpts.ChunkExec = coord
	}
	orch := jobs.New(orchOpts)
	job, err := orch.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case job.Cached:
		fmt.Fprintf(os.Stderr, "cache: campaign %s already complete in %s; zero new trials\n",
			job.Key[:12], cfg.dir)
	case job.Resumed:
		fmt.Fprintf(os.Stderr, "resume: campaign %s continuing at chunk %d/%d (%d trials done)\n",
			job.Key[:12], job.ChunksDone, job.TotalChunks, job.TrialsDone)
	}

	// Ctrl-C stops the orchestrator gracefully: completed chunks are
	// already checkpointed, so the next run with the same -job-dir and
	// spec picks up where this one stopped.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	if cfg.progressEvery > 0 {
		ticker := time.NewTicker(cfg.progressEvery)
		defer ticker.Stop()
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			for {
				select {
				case <-ticker.C:
					if j, ok := orch.Status(job.ID); ok && j.State == jobs.StateRunning {
						fmt.Fprintf(os.Stderr, "progress: job=%s chunks=%d/%d trials=%d/%d failures=%d\n",
							j.ID, j.ChunksDone, j.TotalChunks, j.TrialsDone, j.TrialsTarget, j.Failures)
					}
				case <-watchDone:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	final, err := orch.Wait(ctx, job.ID)
	if err != nil {
		stopSig() // a second ^C kills immediately
		closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if cerr := orch.Close(closeCtx); cerr != nil {
			fmt.Fprintf(os.Stderr, "checkpoint on interrupt: %v\n", cerr)
		}
		if j, ok := orch.Status(job.ID); ok {
			fmt.Fprintf(os.Stderr, "interrupted: %d/%d chunks checkpointed (%d trials); rerun with -job-dir %s to resume\n",
				j.ChunksDone, j.TotalChunks, j.TrialsDone, cfg.dir)
		}
		os.Exit(1)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	orch.Close(closeCtx)

	if final.State != jobs.StateDone {
		fmt.Fprintf(os.Stderr, "campaign %s %s: %s\n", final.ID, final.State, final.Error)
		os.Exit(1)
	}
	var res citadel.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		fmt.Fprintf(os.Stderr, "decoding campaign result: %v\n", err)
		os.Exit(1)
	}
	if res.Weighted {
		fmt.Fprintf(os.Stderr, "rare-event: ESS=%.1f effective-trials=%.3g (%.0fx the %d simulated)\n",
			res.ESS(), res.EffectiveTrials(), res.EffectiveTrials()/float64(max(res.Trials, 1)), res.Trials)
	}
	printResult(res, cfg.spec.LifetimeYears)
}
