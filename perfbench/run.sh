#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload train-cifar --seed 1 --seconds 25 --trace 0
# Every build artefact, cache and temporary file stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root holds no repository sources to benchmark" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
