#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload paper-fig2 --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, scratch result caches and trace output all
# stay under .bench_build in the repository root.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
(cd perfbench && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
