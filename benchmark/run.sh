#!/usr/bin/env bash
# Builds tilebench from source and runs it.
#
#   benchmark/run.sh [--seed N]            every workload, each in its own process;
#                                          writes benchmark/out/results.json and
#                                          benchmark/out/<workload>.spans.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run of one workload (the driver's form)
#   benchmark/run.sh --selfcheck           two sets of runs compared against the bounds
#
# Everything the build and the run write stays under benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/tilebench" ./cmd/tilebench
exec "$out/tilebench" -out "$out" "$@"
