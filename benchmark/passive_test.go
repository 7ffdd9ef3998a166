package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/scenario"
	"repro/internal/stack"
)

// The traced run must time the engine without changing what it computes,
// or its per-layer numbers would describe a different run.

// TestTracingIsPassive runs both engine workloads' campaigns with and
// without every decorator and requires identical results.
func TestTracingIsPassive(t *testing.T) {
	registerTraced()
	for _, w := range []engineWorkload{engineCitadel, engineMultifault} {
		plain, err := w.campaign(context.Background(), 42, 20000, false)
		if err != nil {
			t.Fatalf("%s: %v", w.scheme, err)
		}
		tr := newTracer(runConfig{workload: "passive"})
		activeTracer.Store(tr)
		traced, err := w.campaign(context.Background(), 42, 20000, true)
		activeTracer.Store(nil)
		if err != nil {
			t.Fatalf("%s traced: %v", w.scheme, err)
		}
		if !reflect.DeepEqual(plain.res, traced.res) || plain.scrubs != traced.scrubs {
			t.Errorf("%s: tracing changed the result:\nplain  %+v (%d scrubs)\ntraced %+v (%d scrubs)",
				w.scheme, plain.res, plain.scrubs, traced.res, traced.scrubs)
		}
		r := newReport()
		tr.engineLayers(r)
		if got := r.metrics["fault.faults_per_trial"]; got.n != 20000 {
			t.Errorf("%s: the tracer saw %d trials, want 20000", w.scheme, got.n)
		}
	}
}

// TestTracingKeepsScenarioStats runs a scheme with its own observer under
// a fault model with its own arrival statistics, so the chained observer
// and the forwarded FlushStats both feed Result.ScenarioStats.
func TestTracingKeepsScenarioStats(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := fault.Table1()
	run := func(tr *tracer) faultsim.Result {
		pol, err := scenario.BuildScheme("two-tier-replication", cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := scenario.BuildFaultModel("rowhammer", cfg, rates, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			pol, arrivals = tr.wrapPolicy(pol), tr.wrapArrivals(arrivals)
		}
		return faultsim.RunContext(context.Background(), faultsim.Options{
			Config: cfg, Rates: rates, Trials: 2000, Seed: 9, Workers: 2, NewArrivals: arrivals,
		}, pol)
	}
	plain := run(nil)
	traced := run(newTracer(runConfig{workload: "passive"}))
	if len(plain.ScenarioStats) == 0 {
		t.Fatal("the scenario produced no ScenarioStats; pick one that does")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the result:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

// plainSparer is a sparer without Reset.
type plainSparer struct{}

func (plainSparer) Offer(fault.Fault, []fault.Fault) (bool, []int) { return false, nil }

// TestWrappedSeamsKeepInterfaces checks the optional interfaces the engine
// type-asserts for: losing IncrementalPredicate would time the batch path,
// and losing (or gaining) Reset would change how the engine reuses
// sparers.
func TestWrappedSeamsKeepInterfaces(t *testing.T) {
	cfg := stack.DefaultConfig()
	tr := newTracer(runConfig{workload: "passive"})
	pol, err := scenario.BuildScheme("Citadel", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := tr.wrapPolicy(pol)
	if _, ok := wrapped.Predicate.(ecc.IncrementalPredicate); !ok {
		t.Error("the wrapped predicate lost ecc.IncrementalPredicate")
	}
	if _, ok := wrapped.NewSparer(cfg).(resetter); !ok {
		t.Error("the wrapped DDS sparer lost Reset")
	}
	wrapped = tr.wrapPolicy(faultsim.Policy{
		Predicate: ecc.NoProtection{},
		NewSparer: func(stack.Config) faultsim.Sparer { return plainSparer{} },
	})
	if _, ok := wrapped.NewSparer(cfg).(resetter); ok {
		t.Error("a sparer without Reset gained one when wrapped")
	}
}
