package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	citadel "repro"
)

// TestMain lets a test re-run this binary as citadel-sim itself: with
// CITADEL_SIM_MAIN set, the process runs main and exits with its status.
func TestMain(m *testing.M) {
	if os.Getenv("CITADEL_SIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs citadel-sim with args, fails the test on a non-zero exit,
// and returns what it wrote to standard output.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-progress", "0"}, args...)...)
	cmd.Env = append(os.Environ(), "CITADEL_SIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("citadel-sim %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	return string(out)
}

// TestYearTableCoversLifetime: on the direct and the durable path, the
// year table runs to the end of the simulated lifetime, partial last year
// included, and the lifetime is named by the table header, not by the
// result line. The table used to stop at int(-years), so -years 0 (the
// default seven years) printed no rows and -years 2.5 two, while the
// result line said "P(fail,7y)" whatever the lifetime.
func TestYearTableCoversLifetime(t *testing.T) {
	for _, tc := range []struct {
		years, header string
		rows          int
	}{
		{"2.5", "year   P(failure), lifetime 2.5y", 3},
		{"0", "year   P(failure), lifetime 7y", 7},
		{"3", "year   P(failure), lifetime 3y", 3},
	} {
		for _, durable := range []bool{false, true} {
			args := []string{"-scheme", "1DP", "-trials", "2000", "-years", tc.years}
			if durable {
				args = append(args, "-job-dir", t.TempDir())
			}
			lines := strings.Split(strings.TrimSpace(runSim(t, args...)), "\n")
			if len(lines) != 2+tc.rows {
				t.Errorf("citadel-sim %v printed %d lines, want a result line, a header and %d rows:\n%s",
					args, len(lines), tc.rows, strings.Join(lines, "\n"))
				continue
			}
			if !strings.Contains(lines[0], ": P(fail) = ") || strings.Contains(lines[0], "y)") {
				t.Errorf("citadel-sim %v result line %q should read \"P(fail) = \" and name no lifetime", args, lines[0])
			}
			if lines[1] != tc.header {
				t.Errorf("citadel-sim %v header %q, want %q", args, lines[1], tc.header)
			}
			for y, row := range lines[2:] {
				if !strings.HasPrefix(row, strconv.Itoa(y+1)+" ") {
					t.Errorf("citadel-sim %v row %d is %q, want year %d", args, y, row, y+1)
				}
			}
		}
	}
}

// TestNegativeTrialsExitTwo: a negative -trials, -target-failures or
// -max-trials is a usage error (exit 2), in adaptive mode too, and so is
// a -max-trials without -target-failures, in direct and durable mode, and
// a negative or NaN -years, -scrub or FIT rate. So are a non-finite
// -bias-factor or -scenario-param value, a -bias-factor or FIT rate whose
// mean fault count the Poisson sampler cannot draw, and in durable mode a negative
// -trials or -checkpoint-trials (once run at their defaults) and the
// adaptive and forensic settings a campaign does not take. A Go panic
// exits 2 as well, so the output must name the offending setting and
// hold no panic. The timeout turns a run that never ends into a failure.
func TestNegativeTrialsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "-5"}, "-5"},
		{[]string{"-trials", "-5", "-target-failures", "10", "-max-trials", "40000"}, "-5"},
		{[]string{"-trials", "1000", "-target-failures", "-1"}, "-1"},
		{[]string{"-trials", "1000", "-target-failures", "10", "-max-trials", "-1"}, "-1"},
		{[]string{"-trials", "1000", "-max-trials", "5"}, "maxTrials"},
		{[]string{"-trials", "1000", "-max-trials", "5", "-job-dir", t.TempDir()}, "maxTrials"},
		{[]string{"-trials", "2000", "-years", "-1"}, "-1"},
		{[]string{"-trials", "2000", "-years", "NaN"}, "NaN"},
		{[]string{"-trials", "2000", "-scrub", "-5"}, "-5"},
		{[]string{"-trials", "2000", "-tsv-fit", "-5"}, "-5"},
		{[]string{"-trials", "2000", "-years", "-1", "-job-dir", t.TempDir()}, "-1"},
		{[]string{"-scheme", "1DP", "-trials", "-5", "-job-dir", t.TempDir()}, "-5"},
		{[]string{"-trials", "2000", "-checkpoint-trials", "-3", "-job-dir", t.TempDir()}, "-3"},
		{[]string{"-trials", "2000", "-target-failures", "10", "-job-dir", t.TempDir()}, "targetFailures"},
		{[]string{"-trials", "2000", "-forensics", filepath.Join(t.TempDir(), "f.json"), "-job-dir", t.TempDir()}, "forensics"},
		{[]string{"-scheme", "3DP", "-trials", "2000", "-rare-event", "-bias-factor", "NaN"}, "NaN"},
		{[]string{"-scheme", "3DP", "-trials", "2000", "-rare-event", "-bias-factor", "+Inf"}, "Inf"},
		{[]string{"-scheme", "3DP", "-trials", "50", "-rare-event", "-bias-factor", "1e6"}, "biasFactor 1e+06"},
		{[]string{"-trials", "2000", "-tsv-fit", "1e13"}, "1e+13 FIT"},
		{[]string{"-scheme", "two-tier-replication", "-trials", "2000", "-scenario-param", "fetchBandwidthGBps=NaN"}, "fetchBandwidthGBps"},
		{[]string{"-scheme", "two-tier-replication", "-trials", "2000", "-scenario-param", "fetchLatencyMicros=+Inf"}, "fetchLatencyMicros"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-progress", "0", "-scheme", "Citadel"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "CITADEL_SIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("citadel-sim %v: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic:") {
			t.Errorf("citadel-sim %v: output should name %q and hold no panic:\n%s", tc.args, tc.want, out)
		}
	}
}

// verifyReportFile replays every exemplar of a written forensics report,
// as citadel-repro -forensics does.
func verifyReportFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report citadel.ForensicsReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Exemplars) == 0 {
		t.Fatalf("%s holds no exemplars", path)
	}
	if err := citadel.VerifyReport(report); err != nil {
		t.Fatalf("%s does not replay: %v", path, err)
	}
}

// TestRareEventComposes: importance sampling runs adaptively with
// forensics and a trace, and its exemplars replay.
func TestRareEventComposes(t *testing.T) {
	dir := t.TempDir()
	f, tr := filepath.Join(dir, "f.json"), filepath.Join(dir, "t.json")
	runSim(t, "-rare-event", "-target-failures", "20", "-trials", "2000", "-forensics", f, "-trace", tr)
	verifyReportFile(t, f)
	if st, err := os.Stat(tr); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
}

// TestRegistrySchemeForensics: a scenario-registry scheme writes a
// replayable forensics report.
func TestRegistrySchemeForensics(t *testing.T) {
	f := filepath.Join(t.TempDir(), "f.json")
	runSim(t, "-scheme", "cerberus-cross-layer", "-trials", "3000", "-tsv-fit", "1430", "-forensics", f)
	verifyReportFile(t, f)
}

// TestClusterListenFallsBackLocal: with -cluster-listen and no worker,
// the campaign runs locally once the worker grace has passed and prints
// what -job-dir alone prints. The grace runs from the campaign's
// registration and the coordinator scans once per grace, so the
// fallback comes well under a second after the campaign starts.
func TestClusterListenFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("waits for the coordinator's expiry scans; skipped with -short")
	}
	want := runSim(t, "-scheme", "1DP", "-trials", "2000", "-seed", "3", "-job-dir", t.TempDir())
	got := runSim(t, "-scheme", "1DP", "-trials", "2000", "-seed", "3", "-job-dir", t.TempDir(),
		"-cluster-listen", "127.0.0.1:0", "-worker-grace", "100ms")
	if got != want {
		t.Errorf("-cluster-listen with no worker printed\n%s\nwant what -job-dir alone prints\n%s", got, want)
	}
}
