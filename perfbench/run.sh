#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload ensemble-inproc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; go.mod not found" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
