package rare

import "repro/internal/obs"

// Multilevel-splitting metrics, exposed by cmd/citadel-server at
// GET /metrics. Importance-sampled trials run on the faultsim executor and
// count in its citadel_faultsim_* family.
var mSplitStages = obs.Default().Counter("citadel_rare_split_stages_total",
	"Multilevel-splitting stages completed.")
