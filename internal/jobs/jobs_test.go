package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	citadel "repro"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/store"
)

// nolog discards orchestrator and store chatter.
func nolog(string, ...any) {}

// trialsTotal reads the engine's process-wide trial counter; cache-hit
// tests assert it stays flat.
func trialsTotal() int64 {
	return obs.Default().Counter("citadel_faultsim_trials_total", "").Value()
}

func newOrch(t *testing.T, dir string, workers, depth int) (*Orchestrator, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	o := New(Options{Store: st, Workers: workers, QueueDepth: depth, Logf: nolog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		o.Close(ctx)
	})
	return o, st
}

// smallSpec is a campaign cheap enough for unit tests: a few thousand
// trials split into enough chunks to exercise checkpointing.
func smallSpec(seed int64) Spec {
	return Spec{Reliability: &ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           2000,
		CheckpointTrials: 500,
		Workers:          1,
		Seed:             seed,
		TSVFIT:           1430,
	}}
}

func waitDone(t *testing.T, o *Orchestrator, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := o.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (state %s)", id, err, j.State)
	}
	return j
}

func TestKeyNormalizesDefaults(t *testing.T) {
	implicit := Spec{Kind: KindReliability, Reliability: &ReliabilitySpec{Scheme: "Citadel"}}
	explicit := Spec{
		Priority: 7, // excluded from the key
		Reliability: &ReliabilitySpec{
			Scheme:           "Citadel",
			Trials:           100000,
			LifetimeYears:    7,
			ScrubHours:       12,
			CheckpointTrials: DefaultCheckpointTrials,
		},
	}
	ki, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	ke, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Errorf("defaulted spec and explicit-defaults spec hash differently:\n  %s\n  %s", ki, ke)
	}
	other := implicit
	other.Reliability = &ReliabilitySpec{Scheme: "Citadel", Seed: 99}
	ko, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ko == ki {
		t.Error("different seeds share a content key")
	}
}

// TestWorkersLeaveKey: the worker count sets only parallelism, so specs
// differing only in Workers address one campaign.
func TestWorkersLeaveKey(t *testing.T) {
	want, err := smallSpec(1).Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 2, 3, 64} {
		spec := smallSpec(1)
		spec.Reliability.Workers = workers
		if got, err := spec.Key(); err != nil || got != want {
			t.Errorf("Workers %d: key %s (err %v), want %s", workers, got, err, want)
		}
	}
}

// TestChunkedCampaignMatchesDirectRun: chunk i runs the trials of the
// campaign's seed that follow chunks 0..i-1, so merging every chunk
// reproduces one direct run of the whole trial budget.
func TestChunkedCampaignMatchesDirectRun(t *testing.T) {
	for _, scheme := range []string{"Citadel", "3DP"} {
		r := smallSpec(5).Normalize().Reliability
		r.Scheme = scheme
		var total citadel.Result
		for i := 0; i < totalChunks(r); i++ {
			res, err := RunChunk(context.Background(), r, i, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			total = faultsim.Merge(total, res)
			total.Policy = res.Policy
		}
		direct, err := citadel.Simulate(context.Background(), r.options(), citadel.Scheme(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(total, direct) {
			t.Errorf("%s: merged chunks differ from the direct run:\n got %+v\nwant %+v", scheme, total, direct)
		}
		if scheme == "3DP" && direct.Failures == 0 {
			t.Errorf("3DP saw no failures; the comparison is vacuous")
		}
	}
}

// TestOldVersionCheckpointRestarts: a checkpoint of another version was
// drawn from other streams, so Recover and Submit must discard it and run
// the campaign from chunk 0 instead of resuming its prefix.
func TestOldVersionCheckpointRestarts(t *testing.T) {
	spec := smallSpec(3).Normalize()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(checkpoint{
		Version: checkpointVersion - 1, Key: key, Spec: spec, ChunksDone: 2, TotalChunks: 4,
		Result: &citadel.Result{Policy: "Citadel", Trials: 1000, Failures: 1000, FailuresByYear: []int{1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, st := newOrch(t, t.TempDir(), 1, 4)
	if err := st.PutJob(key, old); err != nil {
		t.Fatal(err)
	}
	if n := o.Recover(); n != 0 {
		t.Errorf("Recover re-enqueued %d old-version checkpoints", n)
	}
	if _, ok := st.GetJob(key); ok {
		t.Error("old-version checkpoint survived Recover")
	}
	if err := st.PutJob(key, old); err != nil {
		t.Fatal(err)
	}
	j, err := o.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed || j.ChunksDone != 0 {
		t.Errorf("submit resumed an old-version checkpoint at chunk %d", j.ChunksDone)
	}
	fin := waitDone(t, o, j.ID)
	ref, _ := newOrch(t, t.TempDir(), 1, 4)
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := waitDone(t, ref, jr.ID); fin.State != StateDone || !bytes.Equal(fin.Result, want.Result) {
		t.Errorf("restarted campaign (%s) differs from a fresh run:\n got %.200s\nwant %.200s", fin.State, fin.Result, want.Result)
	}
}

func TestSubmitValidation(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	if _, err := o.Submit(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := o.Submit(Spec{Reliability: &ReliabilitySpec{Scheme: "NoSuchScheme"}}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := o.Submit(Spec{
		Reliability: &ReliabilitySpec{Scheme: "Citadel"},
		Performance: &PerformanceSpec{Benchmark: "mcf"},
	}); err == nil {
		t.Error("two sub-specs accepted")
	}
}

func TestReliabilityJobRunsAndCaches(t *testing.T) {
	dir := t.TempDir()
	o, st := newOrch(t, dir, 1, 4)
	j, err := o.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("fresh job state = %s", j.State)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", fin.State, fin.Error)
	}
	if fin.ChunksDone != 4 || fin.TotalChunks != 4 {
		t.Errorf("chunks = %d/%d, want 4/4", fin.ChunksDone, fin.TotalChunks)
	}
	if fin.TrialsDone != 2000 {
		t.Errorf("trialsDone = %d, want 2000", fin.TrialsDone)
	}
	if len(fin.Result) == 0 {
		t.Fatal("done job has no result payload")
	}
	// The finished campaign's checkpoint is gone; its result is cached.
	if _, ok := st.GetJob(fin.Key); ok {
		t.Error("checkpoint survived completion")
	}
	if _, ok := st.GetResult(fin.Key); !ok {
		t.Error("result not in the content-addressed store")
	}

	// A second orchestrator over the same store answers the same spec
	// from cache: zero new trials.
	o2, _ := newOrch(t, dir, 1, 4)
	before := trialsTotal()
	j2, err := o2.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("cached Submit: %v", err)
	}
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("cached=%v state=%s, want cached done", j2.Cached, j2.State)
	}
	if !bytes.Equal(j2.Result, fin.Result) {
		t.Error("cached result differs from the computed one")
	}
	if after := trialsTotal(); after != before {
		t.Errorf("cache hit ran %d new trials, want 0", after-before)
	}
}

// TestCrashResumeDifferential is the durability acceptance test: a
// campaign checkpointed mid-flight and resumed by a fresh orchestrator
// must produce a result bit-identical to the same campaign run
// uninterrupted.
func TestCrashResumeDifferential(t *testing.T) {
	// At GOMAXPROCS=1 an 8000-trial campaign can finish before the polling
	// loop below is scheduled again, so the campaign is long enough to
	// interrupt on one CPU too.
	spec := Spec{Reliability: &ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           40000,
		CheckpointTrials: 2000, // 20 chunks
		Workers:          1,
		Seed:             42,
		TSVFIT:           1430,
	}}

	// Reference: uninterrupted run.
	oA, _ := newOrch(t, t.TempDir(), 1, 4)
	jA, err := oA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	finA := waitDone(t, oA, jA.ID)
	if finA.State != StateDone {
		t.Fatalf("reference run: %s (%s)", finA.State, finA.Error)
	}

	// Interrupted run: kill the orchestrator once a few chunks are
	// checkpointed.
	dirB := t.TempDir()
	oB, stB := newOrch(t, dirB, 1, 4)
	jB, err := oB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		s, ok := oB.Status(jB.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if s.State.Terminal() {
			t.Fatalf("campaign finished (%s) before it could be interrupted; raise Trials", s.State)
		}
		if s.ChunksDone >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint progress within deadline")
		}
		runtime.Gosched()
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := oB.Close(closeCtx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	interrupted, _ := oB.Status(jB.ID)
	if interrupted.State != StateQueued {
		t.Fatalf("interrupted job state = %s, want queued (resumable)", interrupted.State)
	}
	cpBytes, ok := stB.GetJob(jB.Key)
	if !ok {
		t.Fatal("no checkpoint persisted for the interrupted campaign")
	}
	if len(cpBytes) == 0 {
		t.Fatal("empty checkpoint")
	}

	// Fresh orchestrator, same store: Recover re-enqueues, the campaign
	// resumes from its checkpoint and must match the reference exactly.
	oB2, _ := newOrch(t, dirB, 1, 4)
	if n := oB2.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1", n)
	}
	list := oB2.List()
	if len(list) != 1 {
		t.Fatalf("recovered orchestrator lists %d jobs, want 1", len(list))
	}
	if !list[0].Resumed {
		t.Error("recovered job not marked resumed")
	}
	if list[0].ChunksDone < 3 {
		t.Errorf("recovered job starts at chunk %d, want >= 3", list[0].ChunksDone)
	}
	finB := waitDone(t, oB2, list[0].ID)
	if finB.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", finB.State, finB.Error)
	}
	if !bytes.Equal(finA.Result, finB.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\nA: %.200s\nB: %.200s", finA.Result, finB.Result)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	o, st := newOrch(t, t.TempDir(), 1, 8)
	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 5, TSVFIT: 1430,
	}}
	running, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long job occupies the single worker.
	deadline := time.Now().Add(time.Minute)
	for {
		s, _ := o.Status(running.ID)
		if s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		runtime.Gosched()
	}
	queued, err := o.Submit(smallSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if s, _ := o.Status(queued.ID); s.State != StateCancelled {
		t.Errorf("queued job state after cancel = %s", s.State)
	}
	if _, ok := st.GetJob(queued.Key); ok {
		t.Error("cancelled queued job left a checkpoint behind")
	}

	if err := o.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin := waitDone(t, o, running.ID)
	if fin.State != StateCancelled {
		t.Errorf("running job state after cancel = %s", fin.State)
	}
	if _, ok := st.GetJob(running.Key); ok {
		t.Error("user-cancelled job left a checkpoint (would resurrect on restart)")
	}

	if err := o.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel finished = %v, want ErrFinished", err)
	}
	if err := o.Cancel("j-nope-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestQueueFullAndCoalesce(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 1)
	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 7, TSVFIT: 1430,
	}}
	a, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for o.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		runtime.Gosched()
	}
	// Same spec while active coalesces onto the running job.
	dup, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != a.ID {
		t.Errorf("duplicate submit got job %s, want coalesced %s", dup.ID, a.ID)
	}
	b, err := o.Submit(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(smallSpec(9)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit past queue bound = %v, want ErrQueueFull", err)
	}
	o.Cancel(b.ID)
	o.Cancel(a.ID)
}

func TestRecoverSkipsCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob("deadbeef", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, but the embedded key does not match the file stem.
	if err := st.PutJob("cafebabe", []byte(fmt.Sprintf(`{"version":%d,"key":"something-else","spec":{}}`, checkpointVersion))); err != nil {
		t.Fatal(err)
	}
	o := New(Options{Store: st, Workers: 1, QueueDepth: 4, Logf: nolog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		o.Close(ctx)
	})
	if n := o.Recover(); n != 0 {
		t.Errorf("Recover = %d, want 0", n)
	}
	if _, ok := st.GetJob("deadbeef"); ok {
		t.Error("corrupt checkpoint not deleted")
	}
	if _, ok := st.GetJob("cafebabe"); ok {
		t.Error("key-mismatched checkpoint not deleted")
	}
}

func TestPerformanceJob(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	j, err := o.Submit(Spec{Performance: &PerformanceSpec{
		Benchmark: "mcf", Requests: 2000, Seed: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Result) == 0 {
		t.Fatal("no payload")
	}
}

func TestExperimentJob(t *testing.T) {
	ids := experiments.All()
	if len(ids) == 0 {
		t.Skip("no experiments registered")
	}
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	j, err := o.Submit(Spec{Experiment: &ExperimentSpec{
		ID: ids[0], Trials: 500, Requests: 500, Seed: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(smallSpec(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}
