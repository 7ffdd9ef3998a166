#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload engine-citadel --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, job stores and trace files.
# The build fails, and the script exits non-zero, in a directory that holds
# the benchmark but not the repository it measures.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd benchmark && go build -buildvcs=false -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" "$@"
