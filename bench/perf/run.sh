#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/perf/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, temporary
# files, the go command's own state) stays under .bench_build in the
# checkout, and no module is fetched.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd bench/perf && go build -o "$out/perf" .)
exec "$out/perf" "$@"
