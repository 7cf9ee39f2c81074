#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload sim-o --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Everything the build writes (binary, Go
# build cache, temporary files, Go's own config and telemetry files) stays
# under .bench_build/ in that directory, and the build never goes to the
# network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
(
	cd perfbench
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
