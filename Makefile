# Developer entry points. `make check` is the tier-1 gate: build + gofmt +
# vet + full tests and the determinism pass, plus the race detector over the
# -short suite (the heavy Monte Carlo tests are gated behind -short so the
# race pass stays within CI budget; see skipInShort in internal/faultsim).

GO ?= go

.PHONY: all build fmt vet staticcheck test race determinism fuzz bench-module scenario-smoke check stress-jobs stress-cluster stress-stream bench bench.out bench-check bench-all clean

all: check

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when any tracked Go file is
# not gofmt-clean. It needs a git checkout: with no file list, gofmt would
# read standard input and pass vacuously.
fmt:
	@files="$$(git ls-files '*.go')"; \
	if [ -z "$$files" ]; then echo "fmt: git ls-files lists no Go files"; exit 1; fi; \
	out="$$(gofmt -l $$files)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Extra static analysis when the tool is available. Gated on `command -v`
# so `make check` never downloads anything; CI installs staticcheck
# explicitly (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Race-enabled pass over the fast suite. -short skips the statistically
# heavy Monte Carlo tests (tens of seconds each under the race detector)
# while still racing every engine, the HTTP server, and the cancellation
# paths.
race:
	$(GO) test -race -short ./...

# Orchestrator stress: 100 concurrent job submissions with random
# cancellations under the race detector. Skipped by -short, so the
# regular race pass doesn't pay for it; CI runs it as its own job.
stress-jobs:
	$(GO) test -race -run TestStressSubmitCancel -count=1 ./internal/jobs/

# Cluster chaos harness: a distributed campaign under the race detector
# while workers are randomly SIGKILLed, heartbeats dropped, and every
# chunk result delivered twice; the result must stay bit-identical to a
# quiet local run. Skipped by -short; CI runs it as its own job.
stress-cluster:
	$(GO) test -race -run TestChaosCampaign -count=1 -v ./internal/cluster/

# Streaming result-plane stress: 10k SSE subscribers on one campaign with
# random disconnects and a deliberately slow reader, under the race
# detector; every survivor must observe the terminal frame and the hub
# must end with zero subscribers. Skipped by -short; CI runs it as its
# own job.
stress-stream:
	$(GO) test -race -run TestStressStreamSubscribers -count=1 -v -timeout=10m ./internal/api/

# Host-independence gate: the seeded goldens, the differentials and the
# host-shape invariance test (TestEnginesDeterministicAcrossHostShapes)
# again at GOMAXPROCS 1 and 4. Every trial draws from its own RNG stream,
# so no seeded result may depend on the CPU count; a change that makes
# one depend on it fails here rather than on a differently sized host.
determinism:
	$(GO) test -count=1 -cpu 1,4 -run 'Differential|Golden|Deterministic|Reproducible|Census' \
		./internal/faultsim/ ./internal/rare/ ./internal/scenario/ .

# Fuzzing, 10 s per target (`go test -fuzz` takes one target per run):
# FuzzPatternAlgebra checks footprint intersections and counts against
# brute force on a bounded domain, FuzzNextMatchMinimal checks the
# closed-form nextMatch against the binary-search reference in
# pattern_test.go over full 32-bit inputs, FuzzIntnMatchesMathRand checks
# the sampler's division-free draw against math/rand's Intn, value and
# RNG position, for any range and seed, and FuzzSpecJSON decodes
# arbitrary bytes as a wire job spec: Validate must not panic, and a spec
# it accepts normalizes idempotently under an unchanged content key.
# The durable formats: FuzzOpenCorrupt opens a store whose stale index,
# result and checkpoint files hold arbitrary bytes, and FuzzCheckpoint
# decodes arbitrary bytes as one campaign's checkpoint, which must not
# panic and may admit only a checkpoint that holds exactly the trials of
# the chunks it claims. The cluster protocol: FuzzChunkEnvelope decodes
# arbitrary bytes as a worker's chunk delivery, which must not panic and
# may admit only a complete result whose failure count lies in
# [0, Trials] and that merges into a zero Result. The codes:
# FuzzChecksumMatchesStdlib checks the CRC implementations against the
# standard library and FuzzIncremental checks that a split input gives
# the same checksum;
# FuzzDecodeNeverPanicsOrLies feeds corrupted Reed-Solomon codewords to
# the decoder, which must not panic or report a wrong decode as a
# success, and FuzzErasurePositions feeds it arbitrary erasure lists;
# FuzzIncrementalMatchesBatch checks the incremental ECC verdict against
# the batch oracle over a fuzzed add/remove schedule,
# FuzzSwapperMatchesReference checks TSV-SWAP's constant-time repair
# against the map-based reference over fuzzed arrival sequences, repeated
# and stray TSVs and channels outside the geometry included, and
# FuzzControllerTSVMatchesSwapper checks that the functional controller,
# reading a corrupted line after each fuzzed arrival, repairs exactly the
# TSVs that constant-time repair does.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzPatternAlgebra$$' -fuzztime 10s ./internal/fault/
	$(GO) test -run xxx -fuzz '^FuzzNextMatchMinimal$$' -fuzztime 10s ./internal/fault/
	$(GO) test -run xxx -fuzz '^FuzzIntnMatchesMathRand$$' -fuzztime 10s ./internal/fault/
	$(GO) test -run xxx -fuzz '^FuzzSpecJSON$$' -fuzztime 10s ./internal/jobs/
	$(GO) test -run xxx -fuzz '^FuzzOpenCorrupt$$' -fuzztime 10s ./internal/store/
	$(GO) test -run xxx -fuzz '^FuzzCheckpoint$$' -fuzztime 10s ./internal/jobs/
	$(GO) test -run xxx -fuzz '^FuzzChunkEnvelope$$' -fuzztime 10s ./internal/faultsim/
	$(GO) test -run xxx -fuzz '^FuzzChecksumMatchesStdlib$$' -fuzztime 10s ./internal/crc/
	$(GO) test -run xxx -fuzz '^FuzzIncremental$$' -fuzztime 10s ./internal/crc/
	$(GO) test -run xxx -fuzz '^FuzzDecodeNeverPanicsOrLies$$' -fuzztime 10s ./internal/reedsolomon/
	$(GO) test -run xxx -fuzz '^FuzzErasurePositions$$' -fuzztime 10s ./internal/reedsolomon/
	$(GO) test -run xxx -fuzz '^FuzzIncrementalMatchesBatch$$' -fuzztime 10s ./internal/ecc/
	$(GO) test -run xxx -fuzz '^FuzzSwapperMatchesReference$$' -fuzztime 10s ./internal/tsv/
	$(GO) test -run xxx -fuzz '^FuzzControllerTSVMatchesSwapper$$' -fuzztime 10s ./internal/core/

# The repository benchmark is its own module (benchmark/go.mod replaces
# repro with ../), so the root `go build ./...` and `go test ./...` never
# compile it. Vet and test it here, so a change to the root API it
# imports fails the gate.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

check: build fmt vet staticcheck test race determinism fuzz bench-module scenario-smoke

# Scenario-registry smoke: the catalog must print (every plugin's init
# ran and validated) and a short rowhammer campaign must survive the
# race detector end-to-end through the public simulation pipeline.
scenario-smoke:
	$(GO) run ./cmd/citadel-sim -list-scenarios >/dev/null
	$(GO) test -race -run 'TestRowhammerEndToEnd' -count=1 ./internal/scenario/

# Engine performance gate: the Monte Carlo trial-loop microbenchmarks
# (incremental vs batch evaluation, back-to-back Citadel and multi-fault
# campaigns in the shapes of the repo benchmark's two engine workloads,
# whose tails a single long run hides, the TSV-SWAP and sparing layers,
# the footprint algebra and fault sampling, CRC variants, and the Figure-4
# striping study) funneled through cmd/benchjson
# into a benchstat-compatible JSON report.
# `jq -r '.raw[]' BENCH_faultsim.json | benchstat /dev/stdin` renders it;
# keep two reports around to benchstat before/after a change.
bench.out:
	$(GO) test -run xxx -bench 'BenchmarkTrials|BenchmarkTrialStateRun|BenchmarkParityStateAdd|BenchmarkShortCampaigns|BenchmarkCitadelCampaigns' \
		-benchmem ./internal/faultsim/ > bench.out
	$(GO) test -run xxx -bench 'BenchmarkSwapperApply|BenchmarkDDSOffer' -benchmem \
		./internal/tsv/ ./internal/sparing/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkPatternIntersect|BenchmarkSamplerAppendLifetime' -benchmem \
		./internal/fault/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkCRC' ./internal/crc/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkRareEventTail' ./internal/rare/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkRowhammerArrivals' -benchmem ./internal/scenario/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkMonteCarloTrialThroughput|BenchmarkFig4StripingReliability' \
		-benchmem . >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkBroadcastFanout' -benchmem ./internal/stream/ >> bench.out
	$(GO) test -run xxx -bench 'BenchmarkJobPoll|BenchmarkAccessSlices' -benchmem \
		./internal/api/ ./internal/perfsim/ >> bench.out

bench: bench.out
	$(GO) run ./cmd/benchjson -o BENCH_faultsim.json < bench.out
	@rm -f bench.out
	@echo wrote BENCH_faultsim.json

# Regression gate: rerun the bench groups and fail on a >10% trials/s drop
# or any allocs/op increase vs the committed BENCH_faultsim.json baseline.
# Refresh the baseline with `make bench` after an intentional change.
bench-check: bench.out
	$(GO) run ./cmd/benchjson -compare BENCH_faultsim.json < bench.out
	@rm -f bench.out

# Full benchmark sweep (every table/figure regeneration; slow).
bench-all:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
