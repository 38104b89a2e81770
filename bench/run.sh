#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Everything the build writes (binary, Go's build cache and
# its telemetry counters) stays inside the checkout. Run from the root of
# the repository: bash bench/run.sh --workload W --seed N --seconds S
# --trace 0|1, or with no arguments for the whole suite.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build"
(cd bench && GOCACHE=$build/gocache XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
