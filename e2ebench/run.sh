#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload paper-sha --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's configuration
# and telemetry files, the binary, and the run's scratch space (data
# directories and span files).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
