#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload browse-tcp --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1            # all four workloads, traced too
#
# The Go build cache, the binary, the database files and the result files
# all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/gisbench-e2e" .)
exec "$out/gisbench-e2e" -dir "$out" "$@"
