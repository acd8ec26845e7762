#!/usr/bin/env bash
# Builds the depsense benchmark from the source tree it sits in and runs it.
#
#   bash depbench/run.sh --workload ingest-replay --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build at the root of
# the tree; spans and run reports go to .bench_out. Without the depsense
# sources next to this directory the build fails and the script exits
# non-zero before anything runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# Everything the go command writes (build cache, temporaries, module cache,
# telemetry counters under the user config dir) stays inside the tree.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/depbench" && go build -o "$build/depbench" .)
cd "$root"
exec "$build/depbench" "$@"
