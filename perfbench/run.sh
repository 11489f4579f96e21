#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root. Every build and cache file goes under the build directory inside
# the checkout ($CARGO_TARGET_DIR when set, .bench_build otherwise).
#
#   bash perfbench/run.sh --workload design-query --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh repin
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
