package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
		direct, err := citadel.Simulate(context.Background(), r.Options(), citadel.Scheme(scheme))
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
		Version: checkpointVersion - 1, Key: key, Spec: spec, ChunksDone: 2,
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
	if _, err := o.Submit(Spec{Reliability: &ReliabilitySpec{Scheme: "Citadel", LifetimeYears: -1}}); err == nil {
		t.Error("negative lifetime accepted")
	}
	if _, err := o.Submit(Spec{Performance: &PerformanceSpec{Benchmark: "mcf", Striping: "diagonal"}}); err == nil {
		t.Error("unknown striping accepted")
	}
	if _, err := o.Submit(Spec{
		Reliability: &ReliabilitySpec{Scheme: "Citadel"},
		Performance: &PerformanceSpec{Benchmark: "mcf"},
	}); err == nil {
		t.Error("two sub-specs accepted")
	}
	// Normalize turns a non-positive count into its default, so a negative
	// count used to run at the default instead of being rejected; and a
	// campaign names the adaptive and forensic fields it does not take.
	for i, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", Trials: -5}}, "trials"},
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", CheckpointTrials: -3}}, "checkpointTrials"},
		{Spec{Performance: &PerformanceSpec{Benchmark: "mcf", Requests: -1}}, "requests"},
		{Spec{Experiment: &ExperimentSpec{ID: "table1", Trials: -1}}, "trials"},
		{Spec{Experiment: &ExperimentSpec{ID: "table1", Requests: -1}}, "requests"},
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", TargetFailures: 10}}, "targetFailures"},
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", TargetFailures: 10, MaxTrials: 40000}}, "maxTrials"},
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", Forensics: true}}, "forensics"},
		{Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", MaxExemplars: 4}}, "maxExemplars"},
	} {
		j, err := o.Submit(tc.spec)
		if err == nil {
			o.Cancel(j.ID)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Submit = %v, want an error naming %q", i, err, tc.want)
		}
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

// blockExec is a ChunkExecutor that runs no chunk and returns when its
// context ends, so the job it runs holds its worker until cancelled.
type blockExec struct{}

func (blockExec) ExecuteChunks(ctx context.Context, _ Campaign, _ func(int, citadel.Result) error) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestConcurrentCancelOfQueuedJob: a queued job ends in the critical
// section in which Cancel claims it, so of several concurrent Cancels
// exactly one succeeds and the others find the job finished.
func TestConcurrentCancelOfQueuedJob(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Store: st, Workers: 1, QueueDepth: 64, ChunkExec: blockExec{}, Logf: nolog})
	defer o.Close(context.Background())
	busy, err := o.Submit(smallSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for s, _ := o.Status(busy.ID); s.State != StateRunning; s, _ = o.Status(busy.ID) {
		if time.Now().After(deadline) {
			t.Fatal("busy job never started")
		}
		runtime.Gosched()
	}
	const cancels = 4
	for i := 0; i < 20; i++ {
		j, err := o.Submit(smallSpec(int64(41 + i)))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var won atomic.Int32
		start := make(chan struct{})
		for k := 0; k < cancels; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch err := o.Cancel(j.ID); {
				case err == nil:
					won.Add(1)
				case !errors.Is(err, ErrFinished):
					t.Errorf("Cancel = %v, want nil or ErrFinished", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := won.Load(); n != 1 {
			t.Fatalf("%d of %d concurrent cancels of a queued job succeeded, want 1", n, cancels)
		}
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

// checkpointFor encodes a checkpoint of spec's campaign stored under
// key, claiming chunksDone chunks and a result of resultTrials trials
// (no result when resultTrials is negative).
func checkpointFor(t *testing.T, key string, spec Spec, chunksDone, resultTrials int) []byte {
	t.Helper()
	cp := checkpoint{Version: checkpointVersion, Key: key, Spec: spec.Normalize(), ChunksDone: chunksDone}
	if resultTrials >= 0 {
		cp.Result = &citadel.Result{Policy: "Citadel", Trials: resultTrials, FailuresByYear: make([]int, 7)}
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// specKey returns spec's content key.
func specKey(t *testing.T, spec Spec) string {
	t.Helper()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRecoverSkipsCorruptCheckpoints: Recover deletes every checkpoint
// that does not belong to the campaign its key addresses or does not
// hold exactly the work it claims, and re-enqueues none of them. A
// checkpoint of smallSpec has 4 chunks of 500 trials.
func TestRecoverSkipsCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		key  string
		data []byte
	}{
		{"not JSON", "deadbeef", []byte("{not json")},
		// Valid JSON, but the embedded key does not match the file stem.
		{"key mismatch", "cafebabe", []byte(fmt.Sprintf(`{"version":%d,"key":"something-else","spec":{}}`, checkpointVersion))},
		// Claims 9 chunks done of 4, and holds a 10-trial result.
		{"overlong", specKey(t, smallSpec(5)), checkpointFor(t, specKey(t, smallSpec(5)), smallSpec(5), 9, 10)},
		// The key field matches the file name, but the spec is seed 12's.
		{"foreign spec", specKey(t, smallSpec(11)), checkpointFor(t, specKey(t, smallSpec(11)), smallSpec(12), 1, 500)},
		{"negative chunks", specKey(t, smallSpec(13)), checkpointFor(t, specKey(t, smallSpec(13)), smallSpec(13), -1, -1)},
		{"result before any chunk", specKey(t, smallSpec(14)), checkpointFor(t, specKey(t, smallSpec(14)), smallSpec(14), 0, 500)},
		{"chunks without result", specKey(t, smallSpec(15)), checkpointFor(t, specKey(t, smallSpec(15)), smallSpec(15), 2, -1)},
		{"short result", specKey(t, smallSpec(16)), checkpointFor(t, specKey(t, smallSpec(16)), smallSpec(16), 2, 999)},
	}
	for _, row := range rows {
		if err := st.PutJob(row.key, row.data); err != nil {
			t.Fatal(err)
		}
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
	for _, row := range rows {
		if _, ok := st.GetJob(row.key); ok {
			t.Errorf("%s: checkpoint not deleted", row.name)
		}
	}
}

// TestSubmitRefusesForeignCheckpoint: Submit resumes only a checkpoint
// that belongs to its campaign and holds exactly the trials of the chunks
// it claims. An overlong checkpoint used to finish the job at once with
// chunks 9/4 and cache its 10-trial result under the spec's key, and a
// checkpoint of another seed's campaign was merged into this one.
func TestSubmitRefusesForeignCheckpoint(t *testing.T) {
	spec := smallSpec(5)
	key := specKey(t, spec)
	ref, _ := newOrch(t, t.TempDir(), 1, 4)
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, ref, jr.ID)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"overlong", checkpointFor(t, key, spec, 9, 10)},
		{"foreign spec", checkpointFor(t, key, smallSpec(6), 1, 500)},
	} {
		o, st := newOrch(t, t.TempDir(), 1, 4)
		if err := st.PutJob(key, tc.data); err != nil {
			t.Fatal(err)
		}
		j, err := o.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if j.Resumed || j.ChunksDone != 0 {
			t.Errorf("%s: submit resumed the checkpoint at chunk %d", tc.name, j.ChunksDone)
		}
		fin := waitDone(t, o, j.ID)
		if fin.State != StateDone || fin.ChunksDone != 4 || fin.TrialsDone != 2000 || !bytes.Equal(fin.Result, want.Result) {
			t.Errorf("%s: job %s at chunks %d/%d and %d trials; want done at 4/4 and 2000 with the fresh run's result\n got %.200s\nwant %.200s",
				tc.name, fin.State, fin.ChunksDone, fin.TotalChunks, fin.TrialsDone, fin.Result, want.Result)
		}
		if cached, _ := st.GetResult(key); !bytes.Equal(cached, want.Result) {
			t.Errorf("%s: the store caches %.200s under the spec's key, want the fresh run's result", tc.name, cached)
		}
	}
}

// TestResumeFromAdmittedCheckpoint: a campaign continues from the
// checkpoint Submit admitted, whatever becomes of the file while the job
// waits in the queue, and a checkpoint in the older layout, which also
// held totalChunks and updatedAt, still resumes. The run used to read
// the checkpoint again, and restarted from chunk 0 when it was gone.
func TestResumeFromAdmittedCheckpoint(t *testing.T) {
	spec := smallSpec(31)
	norm, key := spec.Normalize(), specKey(t, spec)
	var prefix citadel.Result // chunks 0 and 1 of 4
	for i := 0; i < 2; i++ {
		res, err := RunChunk(context.Background(), norm.Reliability, i, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		prefix = faultsim.Merge(prefix, res)
		prefix.Policy = res.Policy
	}
	cp := checkpoint{Version: checkpointVersion, Key: key, Spec: norm, ChunksDone: 2, Result: &prefix}
	current, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	older, err := json.Marshal(struct {
		checkpoint
		TotalChunks int       `json:"totalChunks"`
		UpdatedAt   time.Time `json:"updatedAt"`
	}{cp, 4, time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := newOrch(t, t.TempDir(), 1, 4)
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, ref, jr.ID)
	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 32, TSVFIT: 1430,
	}}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"current", current}, {"older", older}} {
		o, st := newOrch(t, t.TempDir(), 1, 4)
		busy, err := o.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for s, _ := o.Status(busy.ID); s.State != StateRunning; s, _ = o.Status(busy.ID) {
			if time.Now().After(deadline) {
				t.Fatal("long job never started")
			}
			runtime.Gosched()
		}
		if err := st.PutJob(key, tc.data); err != nil {
			t.Fatal(err)
		}
		j, err := o.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Resumed || j.ChunksDone != 2 {
			t.Errorf("%s: submit admitted the checkpoint as resumed %v at chunk %d, want resumed at 2", tc.name, j.Resumed, j.ChunksDone)
		}
		st.DeleteJob(key)
		if err := o.Cancel(busy.ID); err != nil {
			t.Fatal(err)
		}
		fin := waitDone(t, o, j.ID)
		if fin.State != StateDone || !fin.Resumed || !bytes.Equal(fin.Result, want.Result) {
			t.Errorf("%s: job %s, resumed %v; want done and resumed with the uninterrupted result\n got %.200s\nwant %.200s",
				tc.name, fin.State, fin.Resumed, fin.Result, want.Result)
		}
	}
}

// TestMaxIntTrialsCampaign: a campaign of math.MaxInt64 trials counts its
// chunks without overflow. The count used to come out negative, so such
// a campaign ran no chunk and cached an empty result under its key.
func TestMaxIntTrialsCampaign(t *testing.T) {
	o, st := newOrch(t, t.TempDir(), 1, 4)
	j, err := o.Submit(Spec{Reliability: &ReliabilitySpec{Scheme: "1DP", Trials: math.MaxInt64, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (math.MaxInt64-1)/DefaultCheckpointTrials + 1; j.TotalChunks != want {
		t.Errorf("TotalChunks = %d, want %d", j.TotalChunks, want)
	}
	if err := o.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if fin := waitDone(t, o, j.ID); fin.State != StateCancelled {
		t.Errorf("job ended %s (%s), want cancelled", fin.State, fin.Error)
	}
	if _, ok := st.GetResult(j.Key); ok {
		t.Error("a cancelled campaign stored a result")
	}
}

// FuzzCheckpoint decodes arbitrary bytes as the checkpoint stored under
// one campaign's key, seeded with real checkpoints of that campaign.
// decodeCheckpoint must not panic, and a checkpoint it admits must belong
// to the campaign and hold exactly the trials of the chunks it claims.
func FuzzCheckpoint(f *testing.F) {
	spec := smallSpec(5).Normalize()
	key, err := spec.Key()
	if err != nil {
		f.Fatal(err)
	}
	r := spec.Reliability
	var total citadel.Result
	for chunks := 0; chunks <= totalChunks(r); chunks++ {
		cp := checkpoint{Version: checkpointVersion, Key: key, Spec: spec, ChunksDone: chunks}
		if chunks > 0 {
			res, err := RunChunk(context.Background(), r, chunks-1, "", nil)
			if err != nil {
				f.Fatal(err)
			}
			total = faultsim.Merge(total, res)
			total.Policy = res.Policy
			cp.Result = &total
		}
		data, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"key":%q,"spec":{"reliability":{"scheme":"Citadel"}},"chunksDone":1}`, checkpointVersion, key)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(key, data)
		if err != nil {
			return
		}
		if got, err := cp.Spec.Key(); err != nil || got != key || cp.Key != key {
			t.Fatalf("admitted a checkpoint of key %.12s, spec key %.12s (%v) under %.12s", cp.Key, got, err, key)
		}
		r := cp.Spec.Reliability
		if r == nil {
			t.Fatal("admitted a checkpoint without the campaign's reliability spec")
		}
		if cp.ChunksDone < 0 || cp.ChunksDone > totalChunks(r) {
			t.Fatalf("admitted %d of %d chunks done", cp.ChunksDone, totalChunks(r))
		}
		want := 0
		for i := 0; i < cp.ChunksDone; i++ {
			want += r.ChunkTrials(i)
		}
		switch {
		case cp.ChunksDone == 0 && cp.Result != nil:
			t.Fatal("admitted a result before any chunk")
		case cp.ChunksDone > 0 && (cp.Result == nil || cp.Result.Trials != want):
			t.Fatalf("admitted %d chunks done with result %+v, want %d trials", cp.ChunksDone, cp.Result, want)
		}
	})
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
