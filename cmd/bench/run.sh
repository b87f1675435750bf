#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/bench/run.sh --workload u3_single --seed 1 --seconds 25 --trace 0
#
# Every build artefact — Go's build cache, its temporary files and its
# settings — stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd cmd/bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
