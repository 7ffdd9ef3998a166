package perfsim

import (
	"context"
	"io"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/stack"
)

// TestPhaseAttribution checks the latency-attribution invariants: phases
// accumulate only for demand reads, the deterministic service components
// (CAS, activate, burst) match first-principles counts, and contention
// phases stay within the end-to-end latency.
func TestPhaseAttribution(t *testing.T) {
	p := prof(t, "mcf")
	st := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
	if st.Reads == 0 {
		t.Fatal("no reads simulated")
	}
	ph := st.ReadPhases
	tm := DefaultTiming()
	// Same-Bank: one slice per read, so CAS is exactly tCAS per read and
	// burst is exactly LineBurst per read.
	if want := float64(st.Reads) * float64(tm.TCAS); ph.CAS != want {
		t.Errorf("CAS sum = %g, want %g", ph.CAS, want)
	}
	if want := float64(st.Reads) * float64(tm.LineBurst); ph.Burst != want {
		t.Errorf("burst sum = %g, want %g", ph.Burst, want)
	}
	// Activations are shared with background accesses, so the read-side
	// activate sum is bounded by the global miss count.
	if maxAct := float64(st.RowMisses) * float64(tm.TRP+tm.TRCD); ph.Activate > maxAct {
		t.Errorf("activate sum %g exceeds global miss work %g", ph.Activate, maxAct)
	}
	if ph.Queue < 0 || ph.Bus < 0 {
		t.Errorf("negative contention phases: queue=%g bus=%g", ph.Queue, ph.Bus)
	}
	// Each phase alone cannot exceed the end-to-end latency sum (slices of
	// one access proceed in parallel, so the sum of phases may, but each
	// individual phase cannot for single-slice Same-Bank).
	for name, v := range map[string]float64{
		"queue": ph.Queue, "activate": ph.Activate, "cas": ph.CAS,
		"bus": ph.Bus, "burst": ph.Burst,
	} {
		if v > st.ReadLatencySum {
			t.Errorf("%s sum %g exceeds total read latency %g", name, v, st.ReadLatencySum)
		}
	}
	avg := st.AvgReadPhases()
	if got, want := avg.CAS, float64(tm.TCAS); got != want {
		t.Errorf("avg CAS = %g, want %g", got, want)
	}
}

// TestParityOverheadAttribution: 3DP overheads must register parity work,
// and the no-cache variant must cost more than the cached one.
func TestParityOverheadAttribution(t *testing.T) {
	p := prof(t, "stream")
	base := RunContext(context.Background(), p, runCfg(stack.SameBank, Overheads{}, 30000))
	if base.ParityUpdates != 0 || base.ParityOverheadSum != 0 {
		t.Errorf("baseline registered parity work: %d updates, %g cycles",
			base.ParityUpdates, base.ParityOverheadSum)
	}
	cached := RunContext(context.Background(), p, runCfg(stack.SameBank, Citadel3DP(0.85), 30000))
	nocache := RunContext(context.Background(), p, runCfg(stack.SameBank, Citadel3DPNoCache(), 30000))
	if cached.ParityUpdates == 0 {
		t.Fatal("3DP run registered no parity updates")
	}
	if cached.AvgParityOverhead() <= 0 {
		t.Errorf("non-positive average parity overhead: %g", cached.AvgParityOverhead())
	}
	if nocache.ParityOverheadSum <= cached.ParityOverheadSum {
		t.Errorf("no-cache parity overhead (%g) not above cached (%g)",
			nocache.ParityOverheadSum, cached.ParityOverheadSum)
	}
}

// TestPerfTraceEvents wires a recorder into a run and checks the sampled
// read spans carry the phase arguments and export as valid Chrome JSON.
func TestPerfTraceEvents(t *testing.T) {
	p := prof(t, "mcf")
	cfg := runCfg(stack.SameBank, Overheads{}, 20000)
	cfg.RunID = "r-perf-trace"
	cfg.Tracer = trace.New(trace.Options{
		Capacity: 2048, SampleEvery: 16, RunID: cfg.RunID, ClockUnit: "cycles",
	})
	st := RunContext(context.Background(), p, cfg)
	events, _ := cfg.Tracer.Snapshot()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	for i, ev := range events {
		if ev.Name != "read" || ev.Cat != "perfsim" || ev.Phase != trace.PhaseComplete {
			t.Fatalf("event %d unexpected: %+v", i, ev)
		}
		if ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("event %d has negative time: ts=%g dur=%g", i, ev.TS, ev.Dur)
		}
		keys := map[string]bool{}
		for _, a := range ev.Args {
			keys[a.Key] = true
		}
		for _, k := range []string{"queue", "activate", "bus", "burst"} {
			if !keys[k] {
				t.Fatalf("event %d missing phase arg %q: %+v", i, k, ev.Args)
			}
		}
	}
	if uint64(len(events)) >= st.Reads {
		t.Errorf("sampling kept %d of %d reads; expected a strict subset", len(events), st.Reads)
	}
	if err := cfg.Tracer.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("chrome trace export failed: %v", err)
	}
}

// TestProgressCarriesRunID: snapshots must echo Config.RunID.
func TestProgressCarriesRunID(t *testing.T) {
	p := prof(t, "mcf")
	cfg := runCfg(stack.SameBank, Overheads{}, 5000)
	cfg.RunID = "r-progress"
	var last Progress
	cfg.Progress = func(pr Progress) { last = pr }
	RunContext(context.Background(), p, cfg)
	if !last.Done {
		t.Fatal("no final progress snapshot")
	}
	if last.RunID != "r-progress" {
		t.Errorf("progress RunID = %q, want %q", last.RunID, "r-progress")
	}
}
