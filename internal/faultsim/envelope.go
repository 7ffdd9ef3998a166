package faultsim

import "fmt"

// ChunkEnvelope is the wire form of one completed campaign chunk: the
// chunk's Result plus enough identity (campaign key, chunk index,
// expected trial count) for a coordinator to validate it against the
// chunk it handed out and to deduplicate redelivered results by chunk
// index. Chunks are deterministic — chunk i of a campaign always runs the
// same trials of the campaign's seed (SeedAt), whatever the worker count
// of the host that runs it — so two envelopes for the same (campaign,
// chunk) carry identical statistics and dropping a duplicate loses
// nothing.
type ChunkEnvelope struct {
	// CampaignKey is the content key of the campaign the chunk belongs
	// to (jobs.Spec.Key of the normalized spec). A coordinator rejects
	// envelopes for campaigns it is not running.
	CampaignKey string `json:"campaignKey"`
	// Chunk is the zero-based chunk index within the campaign.
	Chunk int `json:"chunk"`
	// Trials is the trial count the chunk was asked to run,
	// cross-checked against Result.Trials so a truncated or mismatched
	// result cannot corrupt the campaign merge.
	Trials int `json:"trials"`
	// Result is the chunk's complete (never partial) simulation result.
	Result Result `json:"result"`
}

// Validate rejects envelopes that must not enter a campaign merge: a
// partial result would bias the statistics, a trial-count mismatch means
// the sender ran the wrong work, a failure count outside [0, Trials] (or
// a by-year count outside [0, Failures]) cannot come from a run, and a
// negative chunk index or empty campaign key is malformed.
func (e ChunkEnvelope) Validate() error {
	for y, n := range e.Result.FailuresByYear {
		if n < 0 || n > e.Result.Failures {
			return fmt.Errorf("faultsim: chunk %d counts %d failures by year %d of %d failures", e.Chunk, n, y+1, e.Result.Failures)
		}
	}
	switch {
	case e.CampaignKey == "":
		return fmt.Errorf("faultsim: chunk envelope without campaign key")
	case e.Chunk < 0:
		return fmt.Errorf("faultsim: negative chunk index %d", e.Chunk)
	case e.Trials <= 0:
		return fmt.Errorf("faultsim: chunk %d claims %d trials", e.Chunk, e.Trials)
	case e.Result.Partial:
		return fmt.Errorf("faultsim: chunk %d result is partial (%d/%d trials)", e.Chunk, e.Result.Trials, e.Trials)
	case e.Result.Trials != e.Trials:
		return fmt.Errorf("faultsim: chunk %d result has %d trials, envelope claims %d", e.Chunk, e.Result.Trials, e.Trials)
	case e.Result.Failures < 0 || e.Result.Failures > e.Result.Trials:
		return fmt.Errorf("faultsim: chunk %d counts %d failures in %d trials", e.Chunk, e.Result.Failures, e.Result.Trials)
	case e.Result.FailWeight < 0 || e.Result.FailWeightSq < 0:
		return fmt.Errorf("faultsim: chunk %d carries negative importance weights", e.Chunk)
	case !e.Result.Weighted && (e.Result.FailWeight != 0 || e.Result.FailWeightSq != 0 || len(e.Result.FailWeightByYear) != 0):
		return fmt.Errorf("faultsim: chunk %d carries importance weights without the Weighted flag", e.Chunk)
	case e.Result.Weighted && e.Result.FailWeight > 0 && e.Result.FailWeightSq == 0:
		return fmt.Errorf("faultsim: chunk %d has positive FailWeight with zero FailWeightSq", e.Chunk)
	}
	return nil
}
