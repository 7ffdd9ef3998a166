package perfsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/workload"
)

// Regression tests for the instruction-accounting and trace-cursor fixes.

// traceOf builds a TraceSource from literal requests.
func traceOf(t *testing.T, reqs []workload.Request) *workload.TraceSource {
	t.Helper()
	src, err := workload.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestInstructionsSummedAcrossCores(t *testing.T) {
	// Pre-fix, Stats.Instructions took the max ICount across cores, so two
	// cores each completing 200 instructions reported 200, not 400 —
	// halving multi-core CPI.
	cfg := runCfg(stack.SameBank, Overheads{}, 4)
	cfg.Cores = 2
	cfg.Trace = traceOf(t, []workload.Request{
		{LineAddr: 0, Core: 0, ICount: 100},
		{LineAddr: 64, Core: 1, ICount: 100},
		{LineAddr: 128, Core: 0, ICount: 200},
		{LineAddr: 192, Core: 1, ICount: 200},
	})
	st := RunContext(context.Background(), prof(t, "mcf"), cfg)
	if st.Instructions != 400 {
		t.Errorf("Instructions = %d, want 400 (200 per core, summed)", st.Instructions)
	}
}

func TestLoopingTraceInstructionsAdvance(t *testing.T) {
	// Pre-fix, a looping trace reset ICount below lastICount and the
	// accounting stalled at the first lap's maximum. Each lap must
	// contribute its progress.
	cfg := runCfg(stack.SameBank, Overheads{}, 8) // 4 laps of a 2-entry trace
	cfg.Cores = 1
	cfg.Trace = traceOf(t, []workload.Request{
		{LineAddr: 0, Core: 0, ICount: 100},
		{LineAddr: 64, Core: 0, ICount: 200},
	})
	st := RunContext(context.Background(), prof(t, "mcf"), cfg)
	// Per lap: +100 (0->100), +100 (100->200); wrap contributes the fresh
	// 100 of the new lap. 4 laps = 800.
	if st.Instructions != 800 {
		t.Errorf("Instructions = %d, want 800 over 4 laps", st.Instructions)
	}
}

func TestTraceReuseSequentialDeterministic(t *testing.T) {
	// Pre-fix, the second run resumed the shared cursor mid-trace and saw
	// a rotated request stream.
	p := prof(t, "gcc")
	reqs := workload.NewGenerator(p, 8, 11).Stream(6000)
	cfg := runCfg(stack.SameBank, Overheads{}, 6000)
	cfg.Trace = traceOf(t, reqs)
	a := RunContext(context.Background(), p, cfg)
	b := RunContext(context.Background(), p, cfg)
	if a != b {
		t.Errorf("second run over the same Config.Trace diverged:\n%+v\n%+v", a, b)
	}
}

func TestTraceReuseIgnoresExternalCursor(t *testing.T) {
	// A caller that consumed part of the trace must not perturb runs: each
	// run replays from the start through a private cursor.
	p := prof(t, "gcc")
	reqs := workload.NewGenerator(p, 8, 11).Stream(6000)
	src := traceOf(t, reqs)
	cfg := runCfg(stack.SameBank, Overheads{}, 6000)
	cfg.Trace = src
	a := RunContext(context.Background(), p, cfg)
	src.Next() // advance the shared cursor between runs
	src.Next()
	b := RunContext(context.Background(), p, cfg)
	if a != b {
		t.Errorf("external cursor position leaked into the run:\n%+v\n%+v", a, b)
	}
}

func TestTraceConcurrentRunsIndependent(t *testing.T) {
	// Concurrent runs over one shared TraceSource must not race on the
	// cursor (caught by -race pre-fix) and must produce identical stats.
	p := prof(t, "gcc")
	reqs := workload.NewGenerator(p, 8, 11).Stream(4000)
	cfg := runCfg(stack.SameBank, Overheads{}, 4000)
	cfg.Trace = traceOf(t, reqs)
	const runs = 4
	out := make([]Stats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = RunContext(context.Background(), p, cfg)
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if out[i] != out[0] {
			t.Errorf("concurrent run %d diverged:\n%+v\n%+v", i, out[i], out[0])
		}
	}
}

func TestTraceSourceResetClone(t *testing.T) {
	src := traceOf(t, []workload.Request{
		{LineAddr: 1}, {LineAddr: 2}, {LineAddr: 3},
	})
	src.Next()
	cl := src.Clone()
	if got := cl.Next().LineAddr; got != 2 {
		t.Errorf("clone did not preserve position: got line %d, want 2", got)
	}
	// Advancing the clone must not move the original.
	if got := src.Next().LineAddr; got != 2 {
		t.Errorf("original cursor moved with the clone: got line %d, want 2", got)
	}
	cl.Reset()
	if got := cl.Next().LineAddr; got != 1 {
		t.Errorf("reset did not rewind: got line %d, want 1", got)
	}
}

func TestPerfProgressFinalSnapshot(t *testing.T) {
	cfg := runCfg(stack.SameBank, Overheads{}, 8000)
	cfg.ProgressInterval = time.Millisecond
	var last Progress
	finals := 0
	cfg.Progress = func(p Progress) {
		last = p
		if p.Done {
			finals++
		}
	}
	st := RunContext(context.Background(), prof(t, "mcf"), cfg)
	if finals != 1 {
		t.Fatalf("got %d final snapshots, want exactly 1", finals)
	}
	if last.RequestsDone != st.RequestsDone || last.RequestsTarget != 8000 {
		t.Errorf("final snapshot %d/%d requests, stats %d/8000",
			last.RequestsDone, last.RequestsTarget, st.RequestsDone)
	}
	if last.Reads != st.Reads {
		t.Errorf("final snapshot %d reads, stats %d", last.Reads, st.Reads)
	}
	if st.Reads > 0 && last.AvgReadLatency <= 0 {
		t.Error("final snapshot has no read latency")
	}
}
