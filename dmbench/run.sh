#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it:
#
#   bash dmbench/run.sh --workload tables-iv-x --seed 0 --seconds 20 --trace 0
#
# Run from the repository root.  Everything the build writes (binary,
# Go build cache, temporary files, go command config) stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
(
	cd "$root/dmbench"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/dmbench" .
)
exec "$out/dmbench" "$@"
