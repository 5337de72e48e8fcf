#!/usr/bin/env bash
# Builds the neusight binary and the benchmark from this checkout, then runs
# the benchmark with the given arguments, or compares two result sets
# (see sets.sh). Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$build/bin" "$build/tmp"
(cd perfbench && go build -o "$build/bin/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/bin/perfbench" "$@"
fi
go build -o "$build/bin/neusight" ./cmd/neusight
exec "$build/bin/perfbench" -bin "$build/bin/neusight" -build "$build" "$@"
