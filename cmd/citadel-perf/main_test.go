package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as citadel-perf itself: with
// CITADEL_PERF_MAIN set, the process runs main and exits with its status.
func TestMain(m *testing.M) {
	if os.Getenv("CITADEL_PERF_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPerf runs citadel-perf with args and returns its combined output and
// exit status.
func runPerf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CITADEL_PERF_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("citadel-perf %v: %v\n%s", args, err, out)
	return "", 0
}

// TestNegativeRequestsRejected: a negative -requests is a usage error
// that names the value. It used to simulate no requests and print
// "cycles 0" and "norm.time NaN" with exit status 0.
func TestNegativeRequestsRejected(t *testing.T) {
	out, code := runPerf(t, "-requests", "-5", "-benchmark", "mcf", "-striping", "across-channels")
	if code != 2 || !strings.Contains(out, "-5") || strings.Contains(out, "NaN") {
		t.Errorf("citadel-perf -requests -5: exit %d, want 2 with a message naming -5:\n%s", code, out)
	}
	out, code = runPerf(t, "-requests", "2000", "-benchmark", "mcf", "-striping", "across-channels")
	if code != 0 || !strings.Contains(out, "mcf") || strings.Contains(out, "NaN") {
		t.Errorf("citadel-perf -requests 2000: exit %d, want 0 with a row for mcf:\n%s", code, out)
	}
}
