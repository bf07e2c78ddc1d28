#!/usr/bin/env bash
# Builds the benchmark from the source tree into .bench_build/ (build
# cache, temporary files and the toolchain's telemetry counters
# included, so nothing is written outside the checkout) and runs it
# with the given flags:
#
#   bash perfbench/run.sh --workload verdict-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. A failed build exits non-zero
# without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
