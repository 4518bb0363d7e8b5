#!/usr/bin/env bash
# Builds the campaign benchmark, fleetd and fleetrun, and runs the
# benchmark. Run from the repository root:
#
#   bash bench/run.sh --workload drain --seed 42 --seconds 10 --trace 0
#
# Everything the builds and the run write (Go build cache, binaries,
# fleetd working sets, traces) stays under .bench_build/ in the
# current directory. Without the repository's sources next to bench/
# the build fails and the script exits non-zero.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/bin/bench" .
go build -o "$out/bin/" ./cmd/fleetd ./cmd/fleetrun
exec "$out/bin/bench" "$@"
