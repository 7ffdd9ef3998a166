package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	citadel "repro"
)

// tinyOptions keeps test runs fast.
func tinyOptions() Options {
	return Options{Trials: 2000, Requests: 5000, Seed: 42}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	opt := tinyOptions()
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Errorf("ID = %q, want %q", rep.ID, id)
			}
			if rep.Title == "" || rep.Text == "" {
				t.Error("empty report")
			}
		})
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow in -short mode")
	}
	opt := tinyOptions()
	for _, id := range Ablations() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Text == "" {
				t.Error("empty report")
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", tinyOptions()); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestNegativeTrialsRejected: a negative trial count is an error from
// RunContext, before any figure runs (figures panic on a Simulate error).
func TestNegativeTrialsRejected(t *testing.T) {
	for _, id := range []string{"fig4", "fig9", "orgs"} {
		if _, err := Run(id, Options{Trials: -5, Requests: 5000}); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("%s with -5 trials: got %v, want a non-negative error", id, err)
		}
	}
}

// TestCompareContextCancelled: once the context is cancelled, every
// scheme of a comparison returns at once as an empty partial Result, in
// the order the schemes were given and under their names.
func TestCompareContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Trials: 10000, Seed: 1, ctx: ctx}
	rs := compare(opt, relOpts(opt, 0, false), citadel.SchemeNone, citadel.Scheme3DP)
	if len(rs) != 2 || rs[0].Policy != "None" || rs[1].Policy != "3DP" {
		t.Fatalf("results out of order or misnamed: %+v", rs)
	}
	for i, r := range rs {
		if !r.Partial || r.Trials != 0 {
			t.Errorf("result %d not an empty partial: %+v", i, r)
		}
	}
}

func TestTable1ContainsPaperNumbers(t *testing.T) {
	rep := Table1()
	for _, want := range []string{"113.6", "148.8", "80.0", "32.8", "1430"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table I missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestTable2MatchesConfig(t *testing.T) {
	rep := Table2()
	for _, want := range []string{"2x8GB", "65536", "2048 B", "256", "7-9-9-9-36"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Table II missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	rep := Overhead()
	for _, want := range []string{"12.5%", "1.6%", "14.1%", "12.5%"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("overhead missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestFig4RowsCoverSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := Fig4(tinyOptions())
	for _, fit := range []string{"0 ", "14 ", "143 ", "1430 "} {
		if !strings.Contains(rep.Text, fit) {
			t.Errorf("Figure 4 missing TSV rate row %q", fit)
		}
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	o := DefaultOptions()
	if o.Trials < 10000 || o.Requests < 10000 {
		t.Errorf("default options too small: %+v", o)
	}
}

func TestRunContextCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled sweep must come back promptly with Partial set —
	// reliability, census, and performance experiments alike.
	for _, id := range []string{"fig4", "fig5", "table3", "orgs"} {
		rep, err := RunContext(ctx, id, tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !rep.Partial {
			t.Errorf("%s: cancelled experiment not marked Partial", id)
		}
	}
	// Static tables need no simulation and ignore cancellation.
	rep, err := RunContext(ctx, "table1", tinyOptions())
	if err != nil || rep.Partial {
		t.Errorf("table1 under cancelled ctx: err=%v partial=%v", err, rep.Partial)
	}
}

func TestRunContextMidSweepCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	opt := Options{Trials: 10_000_000, Requests: 5000, Seed: 42}
	start := time.Now()
	rep, err := RunContext(ctx, "fig14", opt)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancelled experiment took %v", elapsed)
	}
	if !rep.Partial {
		t.Error("interrupted fig14 not marked Partial")
	}
	if rep.Text == "" {
		t.Error("partial report lost its rows")
	}
}
