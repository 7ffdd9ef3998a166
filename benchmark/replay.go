package main

import (
	"encoding/json"
	"os"
	"time"

	citadel "repro"
	"repro/internal/faultsim"
	"repro/internal/store"
)

// storeReplayMax bounds the payloads replayed through the store: every
// Put is a synced write.
const storeReplayMax = 200

// replayMerge times faultsim.Merge folding each sequence of results left
// to right, the way a campaign folds its chunks.
func replayMerge(r *report, runs [][]citadel.Result) {
	var us []float64
	for _, results := range runs {
		var total citadel.Result
		for _, res := range results {
			t0 := time.Now()
			total = faultsim.Merge(total, res)
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	r.set("faultsim.merge_us", median(us), len(us))
}

// payloadsOf encodes results the way the job store holds them.
func payloadsOf(r *report, results []citadel.Result) [][]byte {
	var out [][]byte
	for _, res := range results {
		data, err := json.Marshal(res)
		r.check(err == nil, "encoding a result: %v", err)
		out = append(out, data)
	}
	return out
}

// replayStore times Put and Get of the run's result payloads in a fresh
// store under scratch.
func replayStore(r *report, scratch string, payloads [][]byte) {
	if len(payloads) > storeReplayMax {
		payloads = payloads[:storeReplayMax]
	}
	dir, err := os.MkdirTemp(scratch, "store-replay-")
	if err != nil {
		r.check(false, "store replay: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Logf: quiet})
	if err != nil {
		r.check(false, "store replay: %v", err)
		return
	}
	var put, get []float64
	var bytes int
	for i, data := range payloads {
		key, err := store.Key(i)
		if err != nil {
			r.check(false, "store replay: %v", err)
			return
		}
		t0 := time.Now()
		err = st.PutResult(key, data)
		put = append(put, float64(time.Since(t0))/float64(time.Microsecond))
		r.check(err == nil, "store replay: put: %v", err)
		t0 = time.Now()
		got, ok := st.GetResult(key)
		get = append(get, float64(time.Since(t0))/float64(time.Microsecond))
		r.check(ok && string(got) == string(data), "store replay: get returned other bytes")
		bytes += len(data)
	}
	r.set("store.put_us", median(put), len(put))
	r.set("store.get_us", median(get), len(get))
	r.set("store.bytes_per_campaign", ratio(float64(bytes), float64(len(payloads))), len(payloads))
}

// quiet discards the logs of the code under test; failures surface as
// failed operations and checks instead.
func quiet(string, ...any) {}
