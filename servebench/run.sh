#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash servebench/run.sh --workload inline --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, Go's own config
# and telemetry, the binary, the traced run's span dumps) stays under
# .bench_build/servebench in the current directory. No module is fetched.
set -euo pipefail
out="$(pwd)/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
