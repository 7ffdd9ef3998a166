// Command benchmark is the repository benchmark: it drives the Citadel
// reliability engine and the campaign service from outside the code under
// test, checks every output, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics plus a Chrome trace file).
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash benchmark/run.sh --workload engine-citadel --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --runs 5 --out base.json   # every workload, 5 seeds
//	bash benchmark/run.sh --compare base.json new.json
//
// See README.md for the workloads, metrics and how to read the trace.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// engineWorkers pins every engine worker count, so results and speed do
// not depend on the host's CPU count.
const engineWorkers = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig, r *report)
}

// workloads lists every workload in BENCHMARK.json order; README.md says
// why each was chosen.
var workloads = []workload{
	{"engine-citadel", engineCitadel.run},
	{"engine-multifault", engineMultifault.run},
	{"service-local", serviceLocal.run},
	{"service-cluster", serviceCluster.run},
}

// metricDef names one metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"trials_per_s", "trials/s"},
	{"campaign_p50_ms", "ms"},
	{"campaign_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fault.sample_ns_per_trial", "ns"},
	{"fault.faults_per_trial", "count"},
	{"fault.multi_fault_trial_share", "ratio"},
	{"fault.share", "ratio"},
	{"tsv.arrivals_per_trial", "count"},
	{"tsv.apply_ns", "ns"},
	{"tsv.repaired_ratio", "ratio"},
	{"ecc.add_per_trial", "count"},
	{"ecc.add_ns", "ns"},
	{"ecc.remove_per_trial", "count"},
	{"ecc.remove_ns", "ns"},
	{"ecc.share", "ratio"},
	{"sparing.offer_per_trial", "count"},
	{"sparing.offer_ns", "ns"},
	{"sparing.spared_ratio", "ratio"},
	{"sparing.share", "ratio"},
	{"faultsim.self_ns_per_trial", "ns"},
	{"faultsim.scrub_passes_per_trial", "count"},
	{"faultsim.allocs_per_ktrial", "count"},
	{"faultsim.worker_tail_share", "ratio"},
	{"faultsim.merge_us", "us"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.chunk_period_ms", "ms"},
	{"jobs.commit_p50_ms", "ms"},
	{"jobs.commit_p90_ms", "ms"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.bytes_per_campaign", "bytes"},
	{"cluster.lease_rtt_p50_ms", "ms"},
	{"cluster.lease_rtt_p90_ms", "ms"},
	{"cluster.complete_rtt_p50_ms", "ms"},
	{"cluster.lease_grant_ratio", "ratio"},
	{"cluster.heartbeats_per_chunk", "count"},
	{"cluster.worker_busy_share", "ratio"},
	{"api.submit_ms", "ms"},
	{"api.status_ms", "ms"},
	{"api.revalidate_ms", "ms"},
	{"api.status_bytes", "bytes"},
	{"api.cached_p50_ms", "ms"},
	{"stream.frames_per_campaign", "count"},
	{"stream.terminal_lag_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// runConfig is one run's settings. The sizing fields exist for the smoke
// test; main always uses fullSize.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	scratch  string // directory for job stores and replays
	size     sizing
}

// sizing scales a run: the smoke test shrinks it to finish in seconds.
type sizing struct {
	trialScale   float64       // multiplies every campaign's trial count
	minCampaigns int           // fresh campaigns a run must complete
	setups       int           // set-ups whose median is setup_s
	workerPoll   time.Duration // cluster workers' idle poll
	hardLimit    time.Duration // a run stops measuring after this, complete or not
}

// fullSize is the benchmark's sizing: 100 campaigns give a p90 with ten
// samples beyond it.
var fullSize = sizing{
	trialScale:   1,
	minCampaigns: 100,
	setups:       5,
	workerPoll:   500 * time.Millisecond,
	hardLimit:    140 * time.Second,
}

func (c runConfig) trials(n int) int { return max(1, int(float64(n)*c.size.trialScale)) }

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// report collects one run's metrics, operation counts, checks and digest.
type report struct {
	metrics map[string]measured
	ops     tally
	failed  []string // failed output checks
	notes   []string
	digest  hash.Hash
}

func newReport() *report {
	return &report{metrics: make(map[string]measured), digest: sha256.New()}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, n int) { r.metrics[name] = measured{v, n} }

// setLatency records the campaign latency median and p90 in ms.
func (r *report) setLatency(lat []float64) {
	p90, ok := percentile(lat, 90)
	if !ok {
		r.note("campaign_p90_ms rests on %d samples, fewer than %d beyond it", len(lat), minBeyond)
	}
	r.set("campaign_p50_ms", median(lat), len(lat))
	r.set("campaign_p90_ms", p90, len(lat))
}

// check records a failed output check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// digestItem folds one simulated statistic into the result digest.
func (r *report) digestItem(label string, v any) {
	data, err := json.Marshal(v)
	r.check(err == nil, "digest: encoding %s: %v", label, err)
	fmt.Fprintf(r.digest, "%s %d\n", label, len(data))
	r.digest.Write(data)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the metric lines, digest and result line, and reports
// whether the run was correct.
func (r *report) finish(w *bufio.Writer, trace bool) bool {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !trace {
			r.check(ok && m.n > 0 && m.value > 0 && !math.IsNaN(m.value), "metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		res.Metrics[d.Name] = metricValue{Value: m.value, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-32s %14.6g %-8s n=%d\n", d.Name, m.value, d.Unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	res.Attempted, res.Failed = r.ops.counts()
	fmt.Fprintf(w, "error_rate %.6g (%d failed of %d attempted)\n", r.ops.errorRate(), res.Failed, res.Attempted)
	for _, msg := range r.ops.first {
		fmt.Fprintf(w, "failure %s\n", msg)
	}
	for _, msg := range r.failed {
		fmt.Fprintf(w, "check failed: %s\n", msg)
	}
	fmt.Fprintf(w, "result_digest %s\n", hex.EncodeToString(r.digest.Sum(nil)))
	res.Correct = len(r.failed) == 0 && res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		return false
	}
	w.Write(line)
	w.WriteByte('\n')
	return res.Correct
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (empty: every workload, each in its own process)")
		seed     = flag.Int64("seed", 1, "workload seed; runs with --runs N use seeds seed..seed+N-1")
		seconds  = flag.Float64("seconds", 15, "measured time per run")
		traced   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a Chrome trace file")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for trace files")
		runs     = flag.Int("runs", 1, "without --workload: runs of every workload")
		out      = flag.String("out", "", "without --workload: write every run's result line to this JSON file")
		compare  = flag.Bool("compare", false, "compare two --out files: benchmark --compare base.json new.json")
		refN     = flag.Int("reference", 0, "measure an engine workload's reference statistics over this many trials")
	)
	flag.Parse()
	registerTraced()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("--compare needs two files: base.json new.json")
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *refN > 0:
		if err := measureReference(*name, *refN, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	case *name == "":
		if err := runAll(*runs, *seed, *seconds, *traced == 1, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", *name)
	}
	if err := mapCalibrationTable(); err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{
		workload: wl.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		traceDir: *traceDir,
		scratch:  filepath.Join(".bench_build", "tmp"),
		size:     fullSize,
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v %s\n", wl.name, cfg.seed, cfg.seconds, cfg.trace, hostLine())
	r := newReport()
	wl.run(context.Background(), cfg, r)
	if !cfg.trace {
		rss, err := peakRSSMiB()
		r.check(err == nil, "reading peak RSS: %v", err)
		r.set("peak_rss_mb", rss, 1)
	}
	ok := r.finish(w, cfg.trace)
	if err := w.Flush(); err != nil || !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// hostLine describes the host the numbers come from.
func hostLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitCommit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set (VmHWM), less the
// calibration table, which is resident from before the first campaign to
// the end.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb/1024 - float64(len(calibrationTable)*8)/(1<<20), nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// splitmix derives a decorrelated seed for one stream of a run seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Seed streams of one run: campaign i of client c draws from
// campaignStream(c)+i; warm-up campaigns from warmupStream+i.
const warmupStream = 1 << 40

func campaignStream(client int) uint64 { return uint64(client) << 32 }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
