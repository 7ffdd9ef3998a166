package jobs

import (
	"context"
	"fmt"

	citadel "repro"
	"repro/internal/faultsim"
)

// Campaign identifies a contiguous range of reliability chunks handed to
// a ChunkExecutor. Spec is the normalized reliability spec; chunk i runs
// the Spec.ChunkTrials(i) trials of Spec.Seed that start at trial
// i·CheckpointTrials (faultsim.SeedAt), so the work is a pure function of
// (Spec, i) wherever it executes, whatever that host's worker count.
type Campaign struct {
	// Key is the campaign's content key (Spec.Key of the submitted job).
	Key string
	// RunID tags log lines and progress snapshots (the job ID).
	RunID string
	// Spec is the normalized reliability spec.
	Spec ReliabilitySpec
	// Start is the first chunk still to run (later chunks of a resumed
	// campaign; chunks before it are already merged and checkpointed).
	Start int
	// Total is the campaign's chunk count.
	Total int
}

// ChunkExecutor runs reliability chunks somewhere other than this
// process — internal/cluster implements it by leasing chunks to remote
// citadel-worker processes. The orchestrator treats it as an accelerator,
// not a dependency: any error other than ctx's cancellation makes the
// campaign fall back to local in-process execution from its last
// committed chunk, so losing every worker degrades throughput, never
// correctness or completion.
type ChunkExecutor interface {
	// ExecuteChunks runs chunks [c.Start, c.Total) of c.Spec and calls
	// commit exactly once per chunk in strictly increasing chunk order
	// (the orchestrator folds results left-to-right through
	// faultsim.Merge and checkpoints after each, so out-of-order commits
	// would break the bit-identical determinism contract). commit is
	// called on the goroutine that called ExecuteChunks. A commit
	// error aborts the campaign and is returned. ExecuteChunks returns
	// nil once every chunk is committed, ctx.Err() if cancelled, and any
	// other error to request local fallback for the uncommitted tail.
	ExecuteChunks(ctx context.Context, c Campaign, commit func(chunk int, res citadel.Result) error) error
}

// ChunkTrials returns the trial count of chunk i: CheckpointTrials for
// every chunk but possibly the last, which carries the remainder.
func (r *ReliabilitySpec) ChunkTrials(i int) int {
	n := r.CheckpointTrials
	if rem := r.Trials - i*r.CheckpointTrials; n > rem {
		n = rem
	}
	return n
}

// RunChunk executes chunk i of a normalized reliability spec in-process
// and returns its result. It is the single implementation of "run chunk
// i" shared by the orchestrator's local path and remote citadel-worker
// processes, which is what makes an N-worker campaign bit-identical to
// an in-process one. A cancelled context yields a result with Partial
// set; callers must discard it (partial chunk statistics depend on where
// the cancel landed and would break determinism).
func RunChunk(ctx context.Context, r *ReliabilitySpec, chunk int, runID string, progress func(citadel.RunProgress)) (citadel.Result, error) {
	if chunk < 0 || chunk >= totalChunks(r) {
		return citadel.Result{}, fmt.Errorf("jobs: chunk %d out of range [0, %d)", chunk, totalChunks(r))
	}
	opts := r.Options()
	opts.Trials = r.ChunkTrials(chunk)
	opts.Seed = faultsim.SeedAt(r.Seed, uint64(chunk)*uint64(r.CheckpointTrials))
	opts.RunID = runID
	opts.Progress = progress
	return citadel.Simulate(ctx, opts, citadel.Scheme(r.Scheme))
}
