#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload release-1m --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) and
# the Go tool's per-user files are kept under .bench_build/ in the
# current directory, so nothing is written outside the checkout. Build
# output goes to stderr; the last line of stdout is the result object.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
