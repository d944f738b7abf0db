#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload fig67 --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache, the toolchain's own config and
# telemetry files, and traced-run artifacts all stay under .bench_build/
# in the checkout. Without the simulator's sources next to perfbench/
# the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
