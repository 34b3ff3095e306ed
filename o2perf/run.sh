#!/usr/bin/env bash
# Builds the o2perf benchmark from source and runs it:
#
#   bash o2perf/run.sh --workload corpus-stream --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, temporary
# files and the binary stay under .bench_build/ there; no module is
# downloaded (the benchmark imports only the repository and the standard
# library).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/o2perf"
mkdir -p "$out/cache" "$out/tmp" "$out/home"

(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/cache" GOTMPDIR="$out/tmp" \
		GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/o2perf" .
) >&2

exec "$out/o2perf" "$@"
