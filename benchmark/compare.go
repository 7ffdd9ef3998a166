package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runFile is the --out file: every run's result line, for --compare.
type runFile struct {
	Host    string    `json:"host"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Runs    []runLine `json:"runs"`
}

type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`
	Result   result `json:"result"`
}

// runAll runs every workload n times, each run in its own process so
// set-up time and peak RSS are per workload, then prints each metric's
// median and run-to-run spread.
func runAll(n int, seed int64, seconds float64, trace bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Host: hostLine(), Seconds: seconds, Trace: trace}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			os.Stdout.Write(stdout)
			line, err := parseRun(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (exit: %v)", wl.name, s, err, runErr)
			}
			line.Workload, line.Seed = wl.name, s
			file.Runs = append(file.Runs, line)
		}
	}
	summarize(os.Stdout, file)
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// parseRun extracts the digest and the result line from a run's output.
func parseRun(stdout []byte) (runLine, error) {
	var line runLine
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "result_digest "); ok {
			line.Digest = d
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line.Result); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// byWorkload groups each metric's values by workload.
func (f runFile) byWorkload() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		m := out[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[r.Workload] = m
		}
		for name, v := range r.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// summarize prints each workload's metrics: median, spread and run count.
func summarize(w io.Writer, f runFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tspread (IQR/median)\truns")
	groups := f.byWorkload()
	for _, wl := range workloads {
		for _, name := range sortedKeys(groups[wl.name]) {
			vs := groups[wl.name][name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f%%\t%d\n", wl.name, name, median(vs), 100*spread(vs), len(vs))
		}
	}
	tw.Flush()
}

// benchmarkFile is the part of BENCHMARK.json --compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: each
// side's median, the ratio with its base, the metric's bound, and a
// verdict. A metric whose runs spread wider than its bound is
// "unresolved" unless every new run beats every base run.
func compareFiles(w io.Writer, benchPath, basePath, newPath string) error {
	var bench benchmarkFile
	var base, next runFile
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(newPath, &next); err != nil {
		return err
	}
	bg, ng := base.byWorkload(), next.byWorkload()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnew median\tratio\tbound\tspread base/new\tverdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			bv, nv := bg[wl.Name][m.Name], ng[wl.Name][m.Name]
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tmissing (%d base, %d new runs)\n", wl.Name, m.Name, len(bv), len(nv))
				continue
			}
			bm, nm := median(bv), median(nv)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3fx of %.6g %s\t±%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				wl.Name, m.Name, bm, m.Unit, nm, m.Unit, nm/bm, bm, m.Unit, 100*m.Bound,
				100*spread(bv), 100*spread(nv), verdict(bv, nv, m.Better, m.Bound))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	digests := make(map[string]string)
	for _, r := range base.Runs {
		digests[fmt.Sprintf("%s seed %d", r.Workload, r.Seed)] = r.Digest
	}
	for _, r := range next.Runs {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if d, ok := digests[key]; ok && d != r.Digest {
			if _, err := fmt.Fprintf(w, "result_digest of %s changed: %.12s -> %.12s\n", key, d, r.Digest); err != nil {
				return err
			}
		}
	}
	return nil
}

// verdict classifies the new runs against the base runs. It never
// claims a gain: that takes paired runs (README "Comparing commits").
func verdict(base, next []float64, better string, bound float64) string {
	sign := 1.0 // > 0 when new is worse
	if better == "higher" {
		sign = -1
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if sign*(n-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "no worse: every new run beats every base run"
	case spread(base) > bound || spread(next) > bound:
		return "unresolved: runs spread wider than the bound"
	case sign*(median(next)/median(base)-1) > bound:
		return "worse"
	default:
		return "within bound"
	}
}
