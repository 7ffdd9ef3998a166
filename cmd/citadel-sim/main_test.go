package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// runSim runs citadel-sim with args and fails the test on a non-zero exit.
func runSim(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-progress", "0"}, args...)...)
	cmd.Env = append(os.Environ(), "CITADEL_SIM_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("citadel-sim %v: %v\n%s", args, err, out)
	}
}

// TestNegativeTrialsExitTwo: a negative -trials, -target-failures or
// -max-trials is a usage error (exit 2), in adaptive mode too, and so is
// a -max-trials without -target-failures, in direct and durable mode.
// The timeout turns a run that never ends into a failure.
func TestNegativeTrialsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "-5"},
		{"-trials", "-5", "-target-failures", "10", "-max-trials", "40000"},
		{"-trials", "1000", "-target-failures", "-1"},
		{"-trials", "1000", "-target-failures", "10", "-max-trials", "-1"},
		{"-trials", "1000", "-max-trials", "5"},
		{"-trials", "1000", "-max-trials", "5", "-job-dir", t.TempDir()},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-progress", "0", "-scheme", "Citadel"}, args...)...)
		cmd.Env = append(os.Environ(), "CITADEL_SIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("citadel-sim %v: %v, want exit status 2\n%s", args, err, out)
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
