#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# scratch data dirs, result files) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
